//! Noise-aware simulation through the qdt-noise subsystem.
//!
//! The paper cites noise-aware DD simulation (ref [13]) as one of the
//! applications of Section III. This example drives the same
//! depolarizing noise model through both engines of the noise
//! subsystem — the exact density-matrix engine and Monte-Carlo Kraus
//! trajectories over a decision-diagram substrate — using nothing but
//! engine spec strings, shows they agree, and then pushes the
//! trajectory path to a width where no density matrix could exist.
//!
//! Run with: `cargo run --example noisy_simulation --release`

use qdt::circuit::generators;
use qdt::engine::run;
use qdt::noise::{DensityMatrixEngine, KrausChannel, NoiseModel};
use qdt::verify::noise::noisy_vs_ideal;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p = 0.05;
    let qc = generators::ghz(4);
    println!(
        "GHZ-4 under {}% depolarizing noise after every gate\n",
        p * 100.0
    );

    // (a) exact density matrix — the spec spelling is
    // `density(depol=0.05)`; the concrete type is constructed directly
    // here so ρ's outcome distribution can be read back.
    let model = NoiseModel::uniform(KrausChannel::Depolarizing { p });
    let mut dm = DensityMatrixEngine::with_noise(&model)?;
    run(&mut dm, &qc)?;
    let probs = dm.density().probabilities();
    println!(
        "density matrix ρ: purity {:.4}, trace {:.6}",
        dm.density().purity(),
        dm.density().trace()
    );
    let report = noisy_vs_ideal(&qc, &model)?;
    println!(
        "vs the ideal pure state: fidelity {:.4}, total-variation distance {:.4}",
        report.state_fidelity, report.tvd
    );

    // (b) stochastic Kraus trajectories on decision diagrams — pure
    // states all the way, spec-built: `traj(<count>, …):<substrate>`.
    let shots = 5000;
    let spec = format!("traj({shots}, seed=7, workers=4, depol={p}):dd");
    let mut traj = qdt::create_engine(&spec)?;
    run(traj.as_mut(), &qc)?;
    // All randomness comes from the seed in the spec; this RNG is
    // accepted for API symmetry but never consumed.
    let mut rng = StdRng::seed_from_u64(7);
    let counts = traj.sample(shots, &mut rng)?;

    println!(
        "\n{:>8} {:>18} {:>16}   ({spec})",
        "outcome", "trajectories:dd", "density matrix"
    );
    for (i, &exact) in probs.iter().enumerate() {
        let mc = counts.get(&(i as u128)).copied().unwrap_or(0) as f64 / shots as f64;
        if mc > 0.005 || exact > 0.005 {
            println!("{:>8} {:>18.4} {:>16.4}", format!("|{i:04b}>"), mc, exact);
        }
    }

    // Scale: 30 qubits of noisy GHZ — a 2^60-entry density matrix is
    // pure fantasy; each DD trajectory stays a tiny pure state.
    let wide = generators::ghz(30);
    let mut light = qdt::create_engine("traj(100, seed=7, bitflip=0.01):dd")?;
    run(light.as_mut(), &wide)?;
    let ends = format!("Z{}Z", "I".repeat(wide.num_qubits() - 2));
    let parity = light.expectation(&ends.parse::<qdt::circuit::PauliString>()?)?;
    println!("\nGHZ-30 under 1% bit flips: mean <Z0 Z29> over 100 trajectories = {parity:.3}");
    println!("(a density matrix would need 2^60 entries; the DD trajectory stays tiny)");
    Ok(())
}
