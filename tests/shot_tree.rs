//! The outcome-tree shot loop against the per-shot replay it replaced.
//!
//! [`oracle`] is the shot loop as it was before the tree: every shot
//! restores the post-prefix anchor and re-executes the whole dynamic
//! suffix, drawing each outcome with `collapse_qubit`. The tree must
//! reproduce its histograms and `ShotStats` exactly (`==`) on every
//! dynamic-capable backend and for every worker count, over
//! fixed-seed random circuits with mid-circuit measurement, reset and
//! `c_if` corrections, and over reset-only circuits. A counting wrapper
//! engine pins how few suffix replays the tree needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qdt::circuit::{generators, Circuit, ClassicalState, Gate, Instruction, OpKind, PauliString};
use qdt::complex::{Complex, Matrix};
use qdt::engine::{
    run, shot_factory, CostMetric, EngineCaps, EngineError, EngineFactory, ShotConfig,
    ShotExecutor, ShotResult, SimulationEngine,
};
use qdt_engine::shot::shot_seed;
use qdt_engine::{collapse_qubit, reset_to_zero};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The pre-tree shot loop: one full suffix replay per shot.
fn oracle(spec: &str, qc: &Circuit, shots: usize, seed: u64) -> ShotResult {
    let mut engine = qdt::create_engine(spec).unwrap();
    let (prefix, suffix) = qc.split_dynamic();
    let has_measure = suffix
        .iter()
        .any(|i| matches!(i.kind, OpKind::Measure { .. }));
    run(engine.as_mut(), &prefix).unwrap();
    let mut result = ShotResult::default();
    for s in 0..shots as u64 {
        let mut rng = StdRng::seed_from_u64(shot_seed(seed, s));
        let mut snapshot;
        let checkpointed = engine.checkpoint();
        let work: &mut dyn SimulationEngine = if checkpointed {
            engine.as_mut()
        } else if let Some(boxed) = engine.snapshot() {
            snapshot = boxed;
            snapshot.as_mut()
        } else {
            run(engine.as_mut(), &prefix).unwrap();
            engine.as_mut()
        };
        let stats = &mut result.stats;
        let mut classical = ClassicalState::new(qc.num_clbits());
        for inst in suffix {
            if let Some(cond) = inst.cond {
                if !cond.is_satisfied(&classical) {
                    stats.cond_skipped += 1;
                    continue;
                }
                stats.cond_applied += 1;
            }
            match &inst.kind {
                OpKind::Barrier(_) => {}
                OpKind::Measure { qubit, clbit } => {
                    classical.set(*clbit, collapse_qubit(work, *qubit, &mut rng).unwrap());
                    stats.collapses += 1;
                }
                OpKind::Reset { qubit } => {
                    reset_to_zero(work, *qubit, &mut rng).unwrap();
                    stats.collapses += 1;
                    stats.resets += 1;
                }
                OpKind::Unitary { .. } | OpKind::Swap { .. } => {
                    let mut bare = inst.clone();
                    bare.cond = None;
                    work.apply_instruction(&bare).unwrap();
                }
            }
        }
        let key = if has_measure {
            classical.as_u128()
        } else {
            (0..work.num_qubits()).fold(0u128, |key, q| {
                key | u128::from(collapse_qubit(work, q, &mut rng).unwrap()) << q
            })
        };
        if checkpointed {
            work.rollback().unwrap();
        }
        *result.counts.entry(key).or_insert(0) += 1;
    }
    result.stats.shots = shots;
    result
}

/// A fixed-seed random dynamic circuit on `n` qubits and `n` clbits:
/// gates, CX, mid-circuit measurement, reset and `c_if` corrections.
/// `clifford` keeps the gates stabilizer-simulable; `measure` off gives
/// a reset-only circuit.
fn random_dynamic(
    rng: &mut StdRng,
    n: usize,
    len: usize,
    clifford: bool,
    measure: bool,
) -> Circuit {
    let gates: &[Gate] = if clifford {
        &[Gate::X, Gate::H, Gate::S, Gate::Z]
    } else {
        &[Gate::X, Gate::H, Gate::S, Gate::Z, Gate::T]
    };
    let mut qc = Circuit::with_clbits(n, n);
    for _ in 0..len {
        let q = rng.gen_range(0..n);
        let other = (q + rng.gen_range(1..n)) % n;
        match rng.gen_range(0..6u32) {
            0 | 1 => {
                qc.gate(gates[rng.gen_range(0..gates.len())], q, &[]);
            }
            2 => {
                qc.cx(q, other);
            }
            3 if measure => {
                qc.measure(q, rng.gen_range(0..n));
            }
            4 if measure => {
                let fix = if rng.gen_bool(0.5) { Gate::X } else { Gate::Z };
                qc.gate(fix, q, &[])
                    .c_if(rng.gen_range(0..n), rng.gen_bool(0.5));
            }
            _ => {
                qc.reset(q);
            }
        }
    }
    qc
}

/// Asserts `sample` on `spec` equals the oracle at workers 1, 2 and 4.
fn assert_matches_oracle(spec: &str, qc: &Circuit, shots: usize, seed: u64) {
    let want = oracle(spec, qc, shots, seed);
    let factory = shot_factory(spec).unwrap();
    for workers in [1, 2, 4] {
        let got = ShotExecutor::new(ShotConfig::new(shots, seed).with_workers(workers))
            .sample(&factory, qc)
            .unwrap();
        assert_eq!(got, want, "{spec}, workers={workers}, circuit {qc:?}");
    }
}

#[test]
fn tree_matches_the_per_shot_oracle_on_every_dynamic_backend() {
    for (spec, clifford) in [
        ("array", false),
        ("array(fuse=5)", false),
        ("dd", false),
        ("mps:16", false),
        ("stabilizer", true),
    ] {
        let mut rng = StdRng::seed_from_u64(0x7EE);
        for case in 0..10 {
            // Every fifth circuit is reset-only.
            let qc = random_dynamic(&mut rng, 3, 24, clifford, case % 5 != 4);
            assert_matches_oracle(spec, &qc, 97, case);
        }
    }
}

#[test]
fn protocol_circuits_match_the_oracle() {
    let teleport = generators::teleportation(0.8, 2.1);
    let ladder = generators::reset_reuse_ladder(3);
    let ipe = generators::iterative_phase_estimation(3, 5);
    for spec in ["array", "dd", "mps:16"] {
        for qc in [&teleport, &ladder, &ipe] {
            assert_matches_oracle(spec, qc, 256, 42);
        }
    }
    assert_matches_oracle("stabilizer", &generators::repetition_code(5, 2), 64, 7);
}

#[test]
fn deep_random_paths_match_the_oracle() {
    // 20 fair mid-circuit measurements: nearly every one of the 4096
    // shots takes a path of its own.
    let mut qc = Circuit::with_clbits(2, 20);
    for k in 0..20 {
        qc.h(k % 2);
        qc.measure(k % 2, k);
        qc.x(1 - k % 2).c_if(k, true);
    }
    assert_matches_oracle("array", &qc, 4096, 5);
    // 64 measurements over 2048 shots fill the tree to its node cap;
    // the paths past it run unrecorded and still agree.
    let mut qc = Circuit::with_clbits(1, 64);
    for k in 0..64 {
        qc.h(0);
        qc.measure(0, k);
    }
    assert_matches_oracle("array", &qc, 2048, 6);
}

/// Forwards to an inner engine and counts checkpoint calls: the shot
/// loop takes exactly one per suffix materialisation.
struct Counting {
    inner: Box<dyn SimulationEngine>,
    materialised: Arc<AtomicU64>,
}

impl SimulationEngine for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn caps(&self) -> EngineCaps {
        self.inner.caps()
    }
    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }
    fn prepare(&mut self, num_qubits: usize) -> Result<(), EngineError> {
        self.inner.prepare(num_qubits)
    }
    fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), EngineError> {
        self.inner.apply_instruction(inst)
    }
    fn cost_metric(&self) -> CostMetric {
        self.inner.cost_metric()
    }
    fn amplitudes(&mut self) -> Result<Vec<Complex>, EngineError> {
        self.inner.amplitudes()
    }
    fn expectation(&mut self, pauli: &PauliString) -> Result<f64, EngineError> {
        self.inner.expectation(pauli)
    }
    fn apply_kraus(
        &mut self,
        kraus: &[Matrix],
        qubit: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, EngineError> {
        self.inner.apply_kraus(kraus, qubit, rng)
    }
    fn probability_of_one(&mut self, qubit: usize) -> Result<f64, EngineError> {
        self.inner.probability_of_one(qubit)
    }
    fn project(&mut self, qubit: usize, outcome: bool) -> Result<(), EngineError> {
        self.inner.project(qubit, outcome)
    }
    fn snapshot(&self) -> Option<Box<dyn SimulationEngine>> {
        self.inner.snapshot()
    }
    fn checkpoint(&mut self) -> bool {
        self.materialised.fetch_add(1, Ordering::Relaxed);
        self.inner.checkpoint()
    }
    fn rollback(&mut self) -> Result<(), EngineError> {
        self.inner.rollback()
    }
}

/// Runs `qc` on one counting `spec` engine; returns the result and the
/// number of suffix materialisations.
fn count_materialisations(spec: &str, qc: &Circuit, shots: usize) -> (ShotResult, u64) {
    let materialised = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&materialised);
    let spec = spec.to_string();
    let factory: EngineFactory = Arc::new(move || {
        Ok(Box::new(Counting {
            inner: qdt::create_engine(&spec).expect("spec builds"),
            materialised: Arc::clone(&counter),
        }) as Box<dyn SimulationEngine>)
    });
    let result = ShotExecutor::new(ShotConfig::new(shots, 42))
        .sample(&factory, qc)
        .unwrap();
    (result, materialised.load(Ordering::Relaxed))
}

#[test]
fn teleportation_materialises_each_branch_once() {
    let qc = generators::teleportation(0.8, 2.1);
    for spec in ["array", "dd"] {
        let (result, materialised) = count_materialisations(spec, &qc, 4096);
        assert_eq!(result.stats.shots, 4096);
        assert!(materialised <= 4, "{spec}: {materialised} materialisations");
        assert_eq!(result.counts.len() as u64, materialised, "{spec}");
    }
}

#[test]
fn deterministic_syndromes_materialise_once() {
    let code = generators::repetition_code(41, 3);
    let (result, materialised) = count_materialisations("stabilizer", &code, 128);
    assert_eq!(result.counts.get(&0), Some(&128));
    assert_eq!(materialised, 1);
}
