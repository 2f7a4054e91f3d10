//! Noisy-vs-ideal verification: how far does a noise model push a
//! circuit from its ideal behaviour, and do the two noise engines
//! (exact density matrix, Monte-Carlo trajectories) agree with each
//! other?
//!
//! Two checks:
//!
//! * [`noisy_vs_ideal`] — evolves the circuit both as an ideal pure
//!   state and under a [`NoiseModel`] on the exact
//!   [`DensityMatrixEngine`], reporting fidelity, purity, and the
//!   total-variation distance of the outcome distributions;
//! * [`trajectory_agreement`] — runs stochastic trajectories on a
//!   decision-diagram substrate and chi-squared-tests their merged
//!   histogram against the density-matrix distribution, the
//!   cross-engine consistency check of the noise subsystem.

use std::collections::BTreeMap;
use std::sync::Arc;

use qdt_array::StateVector;
use qdt_circuit::Circuit;
use qdt_dd::DdEngine;
use qdt_engine::{run, EngineFactory, SimulationEngine};
use qdt_noise::{DensityMatrixEngine, NoiseModel, TrajectoryConfig, TrajectoryEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::VerifyError;

/// Probabilities below this are treated as empty bins by the
/// chi-squared statistic.
const BIN_EPS: f64 = 1e-9;

/// How a noise model distorts a circuit, measured against the ideal
/// pure state.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyReport {
    /// Fidelity `⟨ψ|ρ|ψ⟩` between the noisy state ρ and the ideal |ψ⟩.
    pub state_fidelity: f64,
    /// Purity `Tr(ρ²)` of the noisy state (1 = still pure).
    pub purity: f64,
    /// Total-variation distance between the noisy and ideal
    /// measurement distributions.
    pub tvd: f64,
}

/// Result of the trajectory-vs-density cross-engine agreement check.
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementReport {
    /// Pearson chi-squared statistic of the trajectory histogram
    /// against the density-matrix distribution.
    pub chi_squared: f64,
    /// Degrees of freedom (populated bins − 1).
    pub dof: usize,
    /// The 99.9% chi-squared quantile for `dof` — the accept bound.
    pub threshold: f64,
    /// The merged trajectory histogram that was tested.
    pub histogram: BTreeMap<u128, usize>,
}

impl AgreementReport {
    /// `true` if the histogram is statistically consistent with the
    /// density-matrix distribution (chi-squared below the 99.9%
    /// quantile).
    pub fn agrees(&self) -> bool {
        self.chi_squared <= self.threshold
    }
}

fn simulation_error(e: impl std::fmt::Display) -> VerifyError {
    VerifyError::Simulation {
        message: e.to_string(),
    }
}

fn ideal_state(circuit: &Circuit) -> Result<StateVector, VerifyError> {
    let mut psi = StateVector::zero_state(circuit.num_qubits().max(1));
    for inst in circuit.iter() {
        psi.apply_instruction(inst).map_err(simulation_error)?;
    }
    Ok(psi)
}

/// `trajectories` stochastic trajectories on the decision-diagram
/// substrate over four workers — the engine a `traj(…):dd` spec builds.
fn dd_trajectories(
    model: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> Result<TrajectoryEngine, VerifyError> {
    let factory: EngineFactory =
        Arc::new(|| Ok(Box::new(DdEngine::new()) as Box<dyn SimulationEngine>));
    let config = TrajectoryConfig {
        trajectories,
        seed,
        workers: 4,
    };
    TrajectoryEngine::new(factory, config, model).map_err(simulation_error)
}

/// Runs `circuit` ideally and under `model` on the exact
/// density-matrix engine, and reports fidelity, purity, and
/// total-variation distance.
///
/// # Errors
///
/// [`VerifyError::Simulation`] on engine failures (e.g. the circuit is
/// wider than the density-matrix limit) or an invalid noise model.
pub fn noisy_vs_ideal(circuit: &Circuit, model: &NoiseModel) -> Result<NoisyReport, VerifyError> {
    let psi = ideal_state(circuit)?;
    let mut engine = DensityMatrixEngine::with_noise(model).map_err(simulation_error)?;
    run(&mut engine, circuit).map_err(simulation_error)?;
    let rho = engine.density();
    let ideal_probs: Vec<f64> = psi.amplitudes().iter().map(|a| a.norm_sqr()).collect();
    let tvd = 0.5
        * rho
            .probabilities()
            .iter()
            .zip(&ideal_probs)
            .map(|(p, q)| (p - q).abs())
            .sum::<f64>();
    Ok(NoisyReport {
        state_fidelity: rho.fidelity_with_pure(&psi),
        purity: rho.purity(),
        tvd,
    })
}

/// The Pearson chi-squared statistic of an observed histogram against
/// expected probabilities: `Σ (Oᵢ − Eᵢ)² / Eᵢ` with `Eᵢ = N·pᵢ` over
/// the populated bins. Counts observed in bins of (near-)zero expected
/// probability contribute a large penalty instead of dividing by zero.
pub fn chi_squared_stat(counts: &BTreeMap<u128, usize>, probs: &[f64]) -> f64 {
    let total: usize = counts.values().sum();
    let n = total as f64;
    let mut stat = 0.0;
    for (i, p) in probs.iter().enumerate() {
        let observed = *counts.get(&(i as u128)).unwrap_or(&0) as f64;
        if *p < BIN_EPS {
            // An impossible outcome was observed: penalise as if the
            // bin had the minimum representable expectation.
            if observed > 0.0 {
                stat += observed * observed / (n * BIN_EPS);
            }
            continue;
        }
        let expected = n * p;
        stat += (observed - expected) * (observed - expected) / expected;
    }
    stat
}

/// The 99.9% quantile of the chi-squared distribution with `dof`
/// degrees of freedom (Wilson–Hilferty approximation; within ~1% for
/// dof ≥ 1).
pub fn chi_squared_threshold(dof: usize) -> f64 {
    let k = dof.max(1) as f64;
    // z_{0.999} = 3.0902 of the standard normal.
    let z = 3.0902;
    let t = 1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt();
    k * t * t * t
}

/// Cross-engine consistency check: runs `trajectories` stochastic
/// trajectories (decision-diagram substrate, one shot each, seeded by
/// `seed`, four workers) and chi-squared-tests the merged histogram
/// against the exact density-matrix outcome distribution.
///
/// The check is deterministic for a fixed seed; use ≥ 2000
/// trajectories to keep the statistic well below the 99.9% bound on
/// small circuits.
///
/// # Errors
///
/// [`VerifyError::Simulation`] on engine failures or an invalid model.
pub fn trajectory_agreement(
    circuit: &Circuit,
    model: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> Result<AgreementReport, VerifyError> {
    let mut exact = DensityMatrixEngine::with_noise(model).map_err(simulation_error)?;
    run(&mut exact, circuit).map_err(simulation_error)?;
    let probs = exact.density().probabilities();

    let mut sampled = dd_trajectories(model, trajectories, seed)?;
    run(&mut sampled, circuit).map_err(simulation_error)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let histogram = sampled
        .sample(trajectories, &mut rng)
        .map_err(simulation_error)?;

    let chi_squared = chi_squared_stat(&histogram, &probs);
    let dof = probs
        .iter()
        .filter(|p| **p >= BIN_EPS)
        .count()
        .saturating_sub(1);
    Ok(AgreementReport {
        chi_squared,
        dof,
        threshold: chi_squared_threshold(dof),
        histogram,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::{generators, PauliString};
    use qdt_dd::DdPackage;
    use qdt_noise::{GateSelector, KrausChannel};

    #[test]
    fn noiseless_model_reports_perfect_fidelity() {
        let report = noisy_vs_ideal(&generators::bell(), &NoiseModel::new()).unwrap();
        assert!((report.state_fidelity - 1.0).abs() < 1e-9);
        assert!((report.purity - 1.0).abs() < 1e-9);
        assert!(report.tvd < 1e-9);
    }

    #[test]
    fn depolarizing_noise_degrades_fidelity_monotonically() {
        let mut last = 1.0;
        for p in [0.01, 0.05, 0.2] {
            let model = NoiseModel::uniform(KrausChannel::Depolarizing { p });
            let report = noisy_vs_ideal(&generators::ghz(3), &model).unwrap();
            assert!(report.state_fidelity < last, "fidelity falls as p grows");
            assert!(report.purity < 1.0);
            last = report.state_fidelity;
        }
    }

    #[test]
    fn chi_squared_flags_impossible_outcomes() {
        let mut counts = BTreeMap::new();
        counts.insert(1u128, 50usize);
        // All mass expected on |0⟩: observing |1⟩ must blow up the stat.
        let stat = chi_squared_stat(&counts, &[1.0, 0.0]);
        assert!(stat > 1e6);
    }

    #[test]
    fn thresholds_grow_with_dof() {
        assert!(chi_squared_threshold(1) > 10.0);
        assert!(chi_squared_threshold(3) > chi_squared_threshold(1));
        assert!(chi_squared_threshold(7) > chi_squared_threshold(3));
    }

    #[test]
    fn trajectories_agree_with_density_on_noisy_bell() {
        let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.05 });
        let report = trajectory_agreement(&generators::bell(), &model, 2000, 7).unwrap();
        assert!(
            report.agrees(),
            "χ² = {:.2} over dof {} (bound {:.2})",
            report.chi_squared,
            report.dof,
            report.threshold
        );
        assert_eq!(report.histogram.values().sum::<usize>(), 2000);
    }

    /// The fidelity `⟨ψ|ρ|ψ⟩` of the trajectory ensemble in `engine`
    /// with the ideal state ψ of `qc`, from the Pauli expansion
    /// `⟨ψ|ρ|ψ⟩ = 2⁻ⁿ Σ_P ⟨P⟩_ψ ⟨P⟩_ρ` over the Paulis with `⟨P⟩_ψ ≠ 0`.
    fn fidelity_with_ideal(engine: &mut TrajectoryEngine, qc: &Circuit) -> f64 {
        let n = qc.num_qubits();
        let psi = ideal_state(qc).unwrap();
        let mut sum = 0.0;
        for index in 0..1usize << (2 * n) {
            let text: String = (0..n)
                .map(|q| b"IXYZ"[(index >> (2 * q)) & 3] as char)
                .collect();
            let pauli: PauliString = text.parse().unwrap();
            let ideal = qdt_engine::dense_expectation(psi.amplitudes(), &pauli);
            if ideal.abs() > 1e-12 {
                sum += ideal * engine.expectation(&pauli).unwrap();
            }
        }
        sum / (1u64 << n) as f64
    }

    #[test]
    fn kraus_operators_trace_preserving() {
        // Σᵢ ‖Kᵢψ‖² = ⟨ψ|Σᵢ Kᵢ†Kᵢ|ψ⟩ = 1 on the decision diagrams the
        // trajectories draw their branches from.
        let mut dd = DdPackage::new();
        let mut prep = Circuit::new(1);
        prep.h(0).t(0);
        let psi = dd.run_circuit(&prep).unwrap();
        for ch in [
            KrausChannel::Depolarizing { p: 0.2 },
            KrausChannel::AmplitudeDamping { gamma: 0.3 },
            KrausChannel::PhaseDamping { lambda: 0.15 },
            KrausChannel::BitFlip { p: 0.1 },
            KrausChannel::PhaseFlip { p: 0.4 },
        ] {
            let total: f64 = ch
                .kraus_operators()
                .iter()
                .map(|k| {
                    let branch = dd.apply_gate(&psi, k, 0, &[]);
                    dd.norm_sqr(&branch)
                })
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "{ch}: Σ‖Kψ‖² = {total}");
        }
    }

    #[test]
    fn zero_noise_is_exact() {
        let qc = generators::ghz(5);
        let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.0 });
        let mut engine = dd_trajectories(&model, 8, 1).unwrap();
        run(&mut engine, &qc).unwrap();
        assert!((fidelity_with_ideal(&mut engine, &qc) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn trajectory_states_stay_normalised() {
        let qc = generators::qft(4, true);
        let model = NoiseModel::uniform(KrausChannel::AmplitudeDamping { gamma: 0.2 })
            .with_rule(GateSelector::All, KrausChannel::PhaseFlip { p: 0.1 });
        let identity: PauliString = "IIII".parse().unwrap();
        // One trajectory per engine, so ⟨ψ|I|ψ⟩ is that trajectory's norm.
        for seed in 0..10 {
            let mut engine = dd_trajectories(&model, 1, seed).unwrap();
            run(&mut engine, &qc).unwrap();
            let norm = engine.expectation(&identity).unwrap();
            assert!((norm - 1.0).abs() < 1e-9, "seed {seed}: ‖ψ‖² = {norm}");
        }
    }

    #[test]
    fn full_amplitude_damping_forces_ground_state() {
        let mut qc = Circuit::new(1);
        qc.x(0);
        let model = NoiseModel::uniform(KrausChannel::AmplitudeDamping { gamma: 1.0 });
        let mut engine = dd_trajectories(&model, 8, 3).unwrap();
        run(&mut engine, &qc).unwrap();
        let z: PauliString = "Z".parse().unwrap();
        assert!((engine.expectation(&z).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trajectories_converge_to_density_matrix() {
        let qc = generators::ghz(3);
        let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.1 });
        let mut exact = DensityMatrixEngine::with_noise(&model).unwrap();
        run(&mut exact, &qc).unwrap();
        let trajectories = 1500;
        let report = trajectory_agreement(&qc, &model, trajectories, 4).unwrap();
        for (i, p_exact) in exact.density().probabilities().iter().enumerate() {
            let hits = report.histogram.get(&(i as u128)).copied().unwrap_or(0);
            let p_mc = hits as f64 / trajectories as f64;
            assert!(
                (p_mc - p_exact).abs() < 0.05,
                "basis {i}: MC {p_mc:.3} vs exact {p_exact:.3}"
            );
        }
    }

    #[test]
    fn noisy_fidelity_decreases_with_noise_strength() {
        let qc = generators::ghz(4);
        let mut last = 1.01;
        for p in [0.0, 0.05, 0.2] {
            let model = NoiseModel::uniform(KrausChannel::Depolarizing { p });
            let mut engine = dd_trajectories(&model, 200, 5).unwrap();
            run(&mut engine, &qc).unwrap();
            let f = fidelity_with_ideal(&mut engine, &qc);
            assert!(f < last + 0.02, "fidelity should fall: {f} after {last}");
            last = f;
        }
        assert!(last < 0.7, "strong noise must visibly hurt GHZ fidelity");
    }

    #[test]
    fn wide_noisy_simulation_runs() {
        // 24 qubits with noise — far beyond a 2^48-entry density matrix.
        let qc = generators::ghz(24);
        let model = NoiseModel::uniform(KrausChannel::PhaseFlip { p: 0.02 });
        let mut engine = dd_trajectories(&model, 50, 6).unwrap();
        run(&mut engine, &qc).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let counts = engine.sample(50, &mut rng).unwrap();
        assert_eq!(counts.values().sum::<usize>(), 50);
        // Phase flips never change GHZ populations.
        let all_ones = (1u128 << 24) - 1;
        assert!(counts.keys().all(|&k| k == 0 || k == all_ones));
    }
}
