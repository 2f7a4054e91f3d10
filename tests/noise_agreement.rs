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
