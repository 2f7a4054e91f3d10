//! The array engine's relabelling frame against a frame-less oracle.
//!
//! `ArrayEngine` tracks uncontrolled `x` and `swap` gates in a frame (a
//! logical→stored qubit map and a mask of flipped stored bits) instead
//! of moving amplitudes. The oracle here is the plain per-gate path:
//! `StateVector::apply_instruction`, one instruction at a time, with
//! every `x` and `swap` executed. On fixed-seed random circuits dense in
//! `x`/`swap` and mixed with `cx`, `cswap`, `ccz`, CP, U and H:
//!
//! * `amplitudes()` and `amplitude()` are `==` to the oracle at
//!   `fuse` = 0/2/5 × threads 1/2/4 — the frame changes which stored
//!   amplitudes meet an expression, never the expression;
//! * `expectation` and `probability_of_one` agree within 1e-12 (they
//!   sum in stored order, so only the rounding of the sum may differ);
//! * `project` after swaps, `apply_kraus` on relabelled qubits, a
//!   `snapshot` taken mid-frame and `state()` all agree with the oracle,
//!   and `sample` draws the same histogram as sampling the oracle state
//!   under the same seed;
//! * dynamic circuits whose `c_if x` and resets flip stored bits give
//!   the oracle's histograms through the `ShotExecutor`.

use std::collections::BTreeMap;

use qdt::array::{ArrayEngine, StateVector};
use qdt::circuit::{Circuit, Gate, Instruction, OpKind, PauliString};
use qdt::complex::{Complex, Matrix};
use qdt::engine::run;
use qdt::{EngineError, SimulationEngine};
use qdt_engine::{CostMetric, EngineCaps, ShotConfig, ShotExecutor};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Tolerance for quantities summed over the state (the frame sums in
/// stored order, the oracle in logical order).
const SUM_TOL: f64 = 1e-12;

/// Every fuse width × thread count the frame must be exact under.
fn specs() -> Vec<String> {
    let mut specs = Vec::new();
    for fuse in [0, 2, 5] {
        for threads in [1, 2, 4] {
            specs.push(format!("array(fuse={fuse},threads={threads},threshold=1)"));
        }
    }
    specs
}

/// Three distinct qubits of an `n`-qubit register.
fn three(rng: &mut StdRng, n: usize) -> (usize, usize, usize) {
    let a = rng.gen_range(0..n);
    let b = (a + rng.gen_range(1..n)) % n;
    let c = loop {
        let c = rng.gen_range(0..n);
        if c != a && c != b {
            break c;
        }
    };
    (a, b, c)
}

/// A random unitary circuit on `n ≥ 3` qubits, about half of it `x` and
/// `swap`.
fn random_circuit(rng: &mut StdRng, n: usize, len: usize) -> Circuit {
    let mut qc = Circuit::new(n);
    for _ in 0..len {
        let (a, b, c) = three(rng, n);
        let angle = rng.gen_range(0.1..6.2);
        match rng.gen_range(0..10u32) {
            0..=2 => qc.x(a),
            3..=4 => qc.swap(a, b),
            5 => qc.cx(a, b),
            6 => qc.cswap(a, b, c),
            7 => qc.ccz(a, b, c),
            8 => qc.cp(angle, a, b),
            _ => match rng.gen_range(0..2u32) {
                0 => qc.h(a),
                _ => qc.u(angle, 0.3 * angle, 0.7, a),
            },
        };
    }
    qc
}

/// The oracle state: every instruction applied by the frame-less
/// per-gate kernels.
fn oracle(qc: &Circuit) -> StateVector {
    let mut psi = StateVector::zero_state(qc.num_qubits());
    for inst in qc.instructions() {
        psi.apply_instruction(inst).expect("unitary");
    }
    psi
}

fn engine(spec: &str) -> Box<dyn SimulationEngine> {
    qdt::create_engine(spec).expect("spec builds")
}

/// A random Pauli string on `n` qubits.
fn random_pauli(rng: &mut StdRng, n: usize) -> PauliString {
    let s: String = (0..n)
        .map(|_| ['I', 'X', 'Y', 'Z'][rng.gen_range(0..4usize)])
        .collect();
    s.parse().expect("valid Pauli string")
}

#[test]
fn framed_amplitudes_equal_the_per_gate_oracle() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..=7usize);
        let qc = random_circuit(&mut rng, n, 48);
        let want = oracle(&qc);
        let paulis: Vec<PauliString> = (0..4).map(|_| random_pauli(&mut rng, n)).collect();
        for spec in specs() {
            let mut e = engine(&spec);
            run(e.as_mut(), &qc).expect("runs");
            assert!(
                e.amplitudes().unwrap() == want.amplitudes(),
                "seed {seed}, {spec}: amplitudes drifted from the oracle"
            );
            for b in [0, 1, (1usize << n) - 1, rng.gen_range(0..1usize << n)] {
                assert!(
                    e.amplitude(b as u128).unwrap() == want.amplitude(b),
                    "seed {seed}, {spec}: amplitude {b}"
                );
            }
            for p in &paulis {
                let (got, exact) = (e.expectation(p).unwrap(), want.expectation_pauli(p));
                assert!(
                    (got - exact).abs() < SUM_TOL,
                    "seed {seed}, {spec}: <{p}> = {got}, want {exact}"
                );
            }
            for q in 0..n {
                let (got, exact) = (e.probability_of_one(q).unwrap(), want.probability_of_one(q));
                assert!(
                    (got - exact).abs() < SUM_TOL,
                    "seed {seed}, {spec}: P(q{q} = 1) = {got}, want {exact}"
                );
            }
        }
    }
}

fn assert_close(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: dimension");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g.re - w.re).abs() < SUM_TOL && (g.im - w.im).abs() < SUM_TOL,
            "{what}: amplitude {k} is {g}, want {w}"
        );
    }
}

#[test]
fn projection_and_kraus_map_through_the_frame() {
    let damping = [
        Matrix::from_rows(
            2,
            2,
            &[
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::real(0.8),
            ],
        ),
        Matrix::from_rows(
            2,
            2,
            &[
                Complex::ZERO,
                Complex::real(0.6),
                Complex::ZERO,
                Complex::ZERO,
            ],
        ),
    ];
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let n = rng.gen_range(3..=6usize);
        let qc = random_circuit(&mut rng, n, 40);
        let tail = random_circuit(&mut rng, n, 12);
        let q = rng.gen_range(0..n);
        let k = rng.gen_range(0..n);
        for spec in ["array", "array(fuse=5)"] {
            let mut want = oracle(&qc);
            let mut e = engine(spec);
            run(e.as_mut(), &qc).expect("runs");
            // Project onto the likelier outcome of q.
            let outcome = want.probability_of_one(q) > 0.5;
            e.project(q, outcome).expect("non-zero branch");
            want.project_qubit(q, outcome);
            // One damping channel on k, the same draw on both.
            let draw = rng.gen::<u64>();
            let got_k = e
                .apply_kraus(&damping, k, &mut StdRng::seed_from_u64(draw))
                .unwrap();
            let want_k = want.apply_kraus(&damping, k, &mut StdRng::seed_from_u64(draw));
            assert_eq!(got_k, want_k, "seed {seed}, {spec}: Kraus branch");
            // Gates after the collapse keep mapping through the frame.
            for inst in tail.instructions() {
                e.apply_instruction(inst).unwrap();
                want.apply_instruction(inst).unwrap();
            }
            assert_close(
                &e.amplitudes().unwrap(),
                want.amplitudes(),
                &format!("seed {seed}, {spec}"),
            );
        }
    }
}

#[test]
fn snapshots_state_and_samples_see_logical_order() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let n = rng.gen_range(3..=7usize);
        let head = random_circuit(&mut rng, n, 30);
        let tail = random_circuit(&mut rng, n, 30);
        let mut whole = head.clone();
        whole.append(&tail);
        for fuse in [0, 5] {
            let mut e = ArrayEngine::with_threads(1).with_fusion(fuse);
            run(&mut e, &head).unwrap();
            // A snapshot mid-frame (with fused gates still buffered)
            // carries the frame with it.
            let mut snap = e.snapshot().expect("array snapshots");
            for inst in tail.instructions() {
                e.apply_instruction(inst).unwrap();
            }
            let (want_head, want_whole) = (oracle(&head), oracle(&whole));
            assert!(snap.amplitudes().unwrap() == want_head.amplitudes());
            // Sampling draws the oracle's histogram under the same seed.
            let got = e.sample(2000, &mut StdRng::seed_from_u64(seed)).unwrap();
            let want: BTreeMap<u128, usize> = want_whole
                .sample(2000, &mut StdRng::seed_from_u64(seed))
                .into_iter()
                .map(|(k, v)| (k as u128, v))
                .collect();
            assert_eq!(got, want, "seed {seed}, fuse={fuse}: histogram");
            // `state()` moves the amplitudes into logical order.
            assert!(e.state().amplitudes() == want_whole.amplitudes());
            assert!(e.amplitudes().unwrap() == want_whole.amplitudes());
        }
    }
}

/// The oracle as an engine: every instruction through the frame-less
/// per-gate kernels, collapse by plain projection.
#[derive(Clone)]
struct OracleEngine(StateVector);

impl SimulationEngine for OracleEngine {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            max_qubits: 16,
            stochastic_kraus: false,
            dynamic: true,
        }
    }

    fn num_qubits(&self) -> usize {
        self.0.num_qubits()
    }

    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
        self.0 = StateVector::zero_state(num_qubits.max(1));
        Ok(())
    }

    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        self.0
            .apply_instruction(inst)
            .map_err(|e| EngineError::NonUnitary { op: e.to_string() })
    }

    fn cost_metric(&self) -> CostMetric {
        CostMetric {
            name: "amplitudes",
            value: self.0.amplitudes().len(),
        }
    }

    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        Ok(self.0.amplitudes().to_vec())
    }

    fn sample(
        &mut self,
        shots: usize,
        rng: &mut dyn RngCore,
    ) -> Result<BTreeMap<u128, usize>, EngineError> {
        Ok(self
            .0
            .sample(shots, rng)
            .into_iter()
            .map(|(k, v)| (k as u128, v))
            .collect())
    }

    fn probability_of_one(&mut self, qubit: usize) -> Result<f64, EngineError> {
        Ok(self.0.probability_of_one(qubit))
    }

    fn project(&mut self, qubit: usize, outcome: bool) -> Result<(), EngineError> {
        self.0.project_qubit(qubit, outcome);
        Ok(())
    }

    fn snapshot(&self) -> Option<Box<dyn SimulationEngine>> {
        Some(Box::new(self.clone()))
    }
}

/// A dynamic circuit: random unitary layers, mid-circuit measurements,
/// resets and `c_if x` feed-forward.
fn dynamic_circuit(rng: &mut StdRng, n: usize) -> Circuit {
    let mut qc = Circuit::with_clbits(n, 2);
    for layer in 0..3 {
        qc.append(&random_circuit(rng, n, 10));
        qc.h(rng.gen_range(0..n));
        let q = rng.gen_range(0..n);
        qc.measure(q, layer % 2);
        let (a, b, _) = three(rng, n);
        qc.x(a).c_if(layer % 2, true);
        qc.swap(a, b);
        qc.reset(rng.gen_range(0..n));
    }
    let q = rng.gen_range(0..n);
    qc.measure(q, 1);
    qc
}

#[test]
fn conditioned_flips_replay_like_the_oracle() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let n = rng.gen_range(3..=5usize);
        let qc = dynamic_circuit(&mut rng, n);
        let executor = ShotExecutor::new(ShotConfig::new(512, seed));
        let want = executor
            .run_on(&mut OracleEngine(StateVector::zero_state(n)), &qc)
            .expect("oracle runs")
            .counts;
        for spec in [
            "array",
            "array(fuse=2)",
            "array(fuse=5,threads=2,threshold=1)",
        ] {
            let got = executor
                .run_on(engine(spec).as_mut(), &qc)
                .expect("array runs")
                .counts;
            assert_eq!(got, want, "seed {seed}, {spec}: histogram");
        }
    }
}

#[test]
fn relabellings_run_no_kernel() {
    // Only x and swap: the stored amplitudes never move, so a 20-qubit
    // register sees its whole frame without a single pass.
    let mut qc = Circuit::new(20);
    for q in 0..20 {
        qc.x(q);
    }
    for q in 0..10 {
        qc.swap(q, 19 - q);
    }
    let sink = qdt::TelemetrySink::new();
    let mut e = ArrayEngine::with_threads(1).with_fusion(5);
    e.telemetry(&sink);
    run(&mut e, &qc).unwrap();
    assert_eq!(e.amplitude((1 << 20) - 1).unwrap(), Complex::ONE);
    let counter = |name: &str| match sink.metrics().get(name) {
        Some(qdt::telemetry::MetricValue::Counter(n)) => n,
        None => 0,
        other => panic!("{name}: {other:?}"),
    };
    assert_eq!(counter("array.frame.relabelled"), 30);
    assert_eq!(counter("array.fuse.groups"), 0);
    assert_eq!(counter("array.gate.flops"), 0);
    // Controlled or conditioned forms are gates, not relabellings.
    let mut cx = Circuit::new(2);
    cx.cx(0, 1);
    assert!(!cx.instructions()[0].is_relabelling());
    assert!(matches!(
        cx.instructions()[0].kind,
        OpKind::Unitary { gate: Gate::X, .. }
    ));
}
