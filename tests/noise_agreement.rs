//! Cross-engine agreement for the noise subsystem: stochastic
//! trajectories sampled through the public spec grammar must match the
//! exact density-matrix distribution, and must be reproducible.
//!
//! Three properties on small noisy circuits (Bell, GHZ-3):
//!
//! * the merged histogram of `traj(2000, seed=…, depol=…):dd` passes a
//!   chi-squared goodness-of-fit test against the density-matrix
//!   outcome probabilities;
//! * the same seed yields bit-identical histograms run-to-run (the
//!   trajectory engine's determinism guarantee, independent of worker
//!   count);
//! * the `qdt_verify::noise::trajectory_agreement` façade reports the
//!   same verdict.

use std::collections::BTreeMap;

use qdt::circuit::{generators, Circuit};
use qdt::create_engine;
use qdt::engine::run;
use qdt::noise::{DensityMatrixEngine, KrausChannel, NoiseModel};
use qdt::verify::noise::{chi_squared_stat, chi_squared_threshold, trajectory_agreement};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TRAJECTORIES: usize = 2000;
const SEED: u64 = 7;
const DEPOL: f64 = 0.05;

/// Exact outcome distribution of `circuit` under uniform depolarizing
/// noise, from the density-matrix engine.
fn exact_probabilities(circuit: &Circuit) -> Vec<f64> {
    let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: DEPOL });
    let mut engine = DensityMatrixEngine::with_noise(&model).expect("valid model");
    run(&mut engine, circuit).expect("density run");
    engine.density().probabilities()
}

/// Merged trajectory histogram for `circuit` via the engine spec
/// grammar (decision-diagram substrate).
fn trajectory_histogram(circuit: &Circuit, workers: usize) -> BTreeMap<u128, usize> {
    let spec = format!("traj({TRAJECTORIES}, seed={SEED}, workers={workers}, depol={DEPOL}):dd");
    let mut engine = create_engine(&spec).expect("spec parses and builds");
    run(engine.as_mut(), circuit).expect("trajectory run");
    // The trajectory engine derives all randomness from its configured
    // seed; this RNG is accepted for API symmetry but never consumed.
    let mut rng = StdRng::seed_from_u64(SEED);
    engine.sample(TRAJECTORIES, &mut rng).expect("sampling")
}

fn assert_chi_squared_agreement(circuit: &Circuit, label: &str) {
    let probs = exact_probabilities(circuit);
    let histogram = trajectory_histogram(circuit, 4);
    assert_eq!(
        histogram.values().sum::<usize>(),
        TRAJECTORIES,
        "{label}: every trajectory contributes one shot"
    );
    let stat = chi_squared_stat(&histogram, &probs);
    let dof = probs.iter().filter(|p| **p >= 1e-9).count() - 1;
    let bound = chi_squared_threshold(dof);
    assert!(
        stat <= bound,
        "{label}: χ² = {stat:.2} exceeds the 99.9% bound {bound:.2} (dof {dof})"
    );
}

#[test]
fn trajectories_match_density_distribution_on_noisy_bell() {
    assert_chi_squared_agreement(&generators::bell(), "bell");
}

#[test]
fn trajectories_match_density_distribution_on_noisy_ghz3() {
    assert_chi_squared_agreement(&generators::ghz(3), "ghz-3");
}

#[test]
fn fixed_seed_is_reproducible_through_the_spec_grammar() {
    let circuit = generators::ghz(3);
    let first = trajectory_histogram(&circuit, 4);
    let second = trajectory_histogram(&circuit, 4);
    assert_eq!(first, second, "same seed, same spec → same histogram");
}

#[test]
fn verify_facade_agrees_on_noisy_bell() {
    let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: DEPOL });
    let report = trajectory_agreement(&generators::bell(), &model, TRAJECTORIES, SEED)
        .expect("agreement check runs");
    assert!(
        report.agrees(),
        "χ² = {:.2} over dof {} (bound {:.2})",
        report.chi_squared,
        report.dof,
        report.threshold
    );
}

/// Noisy teleportation (depolarizing 0.02 after every gate, 4096 shots,
/// seed 42): every shot is one noise trajectory through the feedback.
/// The histogram is pinned on `array` and `dd`, at 1 and 4 workers.
#[test]
fn noisy_teleportation_histogram_is_pinned() {
    use qdt::engine::{ShotConfig, ShotExecutor};

    let (theta, phi) = (std::f64::consts::FRAC_PI_3, std::f64::consts::FRAC_PI_4);
    let qc = generators::teleportation(theta, phi);
    let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.02 });
    for spec in ["array", "dd"] {
        let factory = qdt::shot_factory(spec).expect("spec builds");
        for workers in [1, 4] {
            let result = ShotExecutor::new(ShotConfig::new(4096, 42).with_workers(workers))
                .sample(&factory, &model.apply(&qc).expect("valid model"))
                .expect("noisy shots run");
            assert_eq!(
                result.counts,
                BTreeMap::from([(0, 1038), (1, 1018), (2, 1034), (3, 1006)]),
                "{spec}, {workers} workers"
            );
        }
    }
}

/// `traj(256, seed=7, depol=0.01, workers=1):dd` on GHZ-8: the ⟨Z₀Z₅⟩
/// estimate, bit for bit.
#[test]
fn ghz8_trajectory_estimate_is_pinned() {
    let mut engine = create_engine("traj(256,seed=7,depol=0.01,workers=1):dd").expect("spec");
    run(engine.as_mut(), &generators::ghz(8)).expect("trajectory run");
    let z0z5: qdt::circuit::PauliString = "IIZIIIIZ".parse().expect("pauli");
    let estimate = engine.expectation(&z0z5).expect("expectation");
    assert_eq!(estimate.to_bits(), 0x3fee_4000_0000_0001, "{estimate}");
}

/// GHZ-8 on the density-matrix engine under depolarizing 0.01 (the
/// `density(depol=0.01)` engine): a digest of every entry of ρ, in
/// order, bit for bit.
#[test]
fn ghz8_density_matrix_is_pinned() {
    let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.01 });
    let mut engine = DensityMatrixEngine::with_noise(&model).expect("valid model");
    run(&mut engine, &generators::ghz(8)).expect("density run");
    let digest = engine
        .density()
        .entries()
        .iter()
        .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, bits| {
            (h ^ bits).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!(digest, 0xa0fd_f29f_d186_f50d);
}

/// A trajectory expectation is the same float for any worker count:
/// the per-trajectory values are summed in trajectory order, not in the
/// order the workers' stripes come back.
#[test]
fn trajectory_expectation_is_worker_invariant() {
    let circuit = generators::random_circuit(6, 4, &mut StdRng::seed_from_u64(3));
    let pauli: qdt::circuit::PauliString = "ZIIIXZ".parse().expect("pauli");
    for noise in ["damp", "depol", "dephase"] {
        let estimate = |workers: usize| {
            let spec = format!("traj(97,seed=5,workers={workers},{noise}=0.05):dd");
            let mut engine = create_engine(&spec).expect("spec");
            run(engine.as_mut(), &circuit).expect("trajectory run");
            engine.expectation(&pauli).expect("expectation")
        };
        let one = estimate(1);
        for workers in [2, 3, 4] {
            let other = estimate(workers);
            assert_eq!(
                other.to_bits(),
                one.to_bits(),
                "{noise}: {workers} workers give {other}, 1 worker {one}"
            );
        }
    }
}

/// Re-preparing an 11-qubit density engine (ρ is a 22-qubit vector, at
/// the width where a dropped state becomes the spare buffer) after a
/// dirtying noisy run: the next run must reproduce a fresh engine's ρ
/// bit for bit.
#[test]
fn reprepared_density_on_a_reused_buffer_matches_a_fresh_one() {
    const N: usize = 11;
    let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.01 });
    let mut dirty = Circuit::new(N);
    dirty.h(0).cx(0, 10).ry(0.9, 5);
    let mut qc = Circuit::new(N);
    qc.h(2).cx(2, 9).rz(0.4, 9);
    let bits = |engine: &DensityMatrixEngine| -> Vec<(u64, u64)> {
        let entries = engine.density().entries();
        entries
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    };

    // The fresh engine runs first, so its ρ is a new allocation.
    let mut fresh = DensityMatrixEngine::with_noise(&model).expect("valid model");
    run(&mut fresh, &qc).expect("density run");
    let want = bits(&fresh);
    drop(fresh);
    let mut engine = DensityMatrixEngine::with_noise(&model).expect("valid model");
    run(&mut engine, &dirty).expect("dirtying run");
    run(&mut engine, &qc).expect("re-prepares and runs");
    assert!(
        bits(&engine) == want,
        "re-prepared density drifted from a fresh engine"
    );
}
