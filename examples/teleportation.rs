//! Quantum teleportation through the dynamic execution model.
//!
//! Teleportation is the canonical dynamic circuit: it *requires*
//! mid-circuit measurement and classically conditioned corrections —
//! no unitary circuit implements it. This example builds the protocol
//! from the generator, runs it through the per-shot executor on every
//! collapse-capable backend, verifies the teleported state with the
//! Bloch-vector fidelity oracle, and shows the worker-count invariance
//! of the histogram and the composition with a noise model.
//!
//! Run with: `cargo run --example teleportation --release`

use qdt::circuit::generators;
use qdt::noise::{KrausChannel, NoiseModel};
use qdt::verify::dynamic::check_teleportation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Message state |ψ⟩ = Rz(φ)·Ry(θ)|0⟩.
    let (theta, phi) = (std::f64::consts::FRAC_PI_3, std::f64::consts::FRAC_PI_4);
    let qc = generators::teleportation(theta, phi);
    println!(
        "teleporting Rz({phi})·Ry({theta})|0⟩: {} instructions, static prefix {}, {} clbits\n",
        qc.len(),
        qc.static_prefix_len(),
        qc.num_clbits()
    );

    // (a) every dynamic-capable backend teleports the state exactly:
    // per-shot fidelity 1 between qubit 2 and the message state, for
    // each of the four measurement patterns.
    for spec in ["array", "dd", "mps:4"] {
        let mut engine = qdt::create_engine(spec)?;
        let report = check_teleportation(engine.as_mut(), theta, phi, 1024, 7)?;
        println!(
            "{spec:>6}: min fidelity {:.15}, {} outcome patterns over {} shots",
            report.min_fidelity, report.outcome_patterns, report.shots
        );
        assert!(report.is_faithful(1e-12));
    }

    // (b) the histogram is a seeded function of (circuit, seed) alone:
    // striping the shots over 4 workers reproduces it bit for bit.
    let sequential = qdt::sample_dynamic(&qc, 4096, "dd", 42, 1)?;
    let striped = qdt::sample_dynamic(&qc, 4096, "dd", 42, 4)?;
    assert_eq!(sequential.counts, striped.counts);
    println!("\n4096 shots, seed 42 (identical at any worker count):");
    for (key, count) in &sequential.counts {
        println!("  c1c0 = {key:02b}: {count}");
    }
    println!(
        "  collapses: {}, conditioned gates fired: {}",
        sequential.stats.collapses, sequential.stats.cond_applied
    );

    // (c) noise composes with feedback: the model writes a channel after
    // every gate, each shot draws its own noise trajectory, and the
    // histogram is still the same at any worker count.
    let noisy = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.02 }).apply(&qc)?;
    println!(
        "\nwith 2% depolarizing noise per gate ({} instructions):",
        noisy.len()
    );
    for spec in ["array", "dd"] {
        let sequential = qdt::sample_dynamic(&noisy, 4096, spec, 42, 1)?;
        let striped = qdt::sample_dynamic(&noisy, 4096, spec, 42, 4)?;
        assert_eq!(sequential.counts, striped.counts);
        println!("  {spec:>5}: {:?}", sequential.counts);
    }
    Ok(())
}
