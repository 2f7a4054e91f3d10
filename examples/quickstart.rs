//! Quickstart: one Bell state, four data structures.
//!
//! Reproduces the running example of the paper (Figs. 1–3): the Bell
//! circuit `H(0); CX(0,1)` represented as a dense array, a decision
//! diagram (with Graphviz output), a tensor network, and a ZX-diagram
//! that simplification reduces to the Bell state.
//!
//! Run with: `cargo run --example quickstart`

use qdt::circuit::generators;
use qdt::dd::DdPackage;
use qdt::engine::run;
use qdt::tensor::{PlanKind, TensorNetwork};
use qdt::zx::{simplify, Diagram};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bell = generators::bell();
    println!("The Bell circuit (paper Figs. 1-3):\n{bell}");

    // --- Section II: arrays -------------------------------------------------
    // Every backend is a SimulationEngine; `create_engine` builds one from a
    // spec string and the shared run loop reports what the run cost.
    println!("== Arrays (Fig. 1a) ==");
    let mut engine = qdt::create_engine("array")?;
    let stats = run(engine.as_mut(), &bell)?;
    println!(
        "  {} gates applied, {} {} held",
        stats.gates_applied, stats.peak_metric, stats.metric_name
    );
    let amps = engine.amplitudes()?;
    for (i, a) in amps.iter().enumerate() {
        println!("  |{i:02b}⟩: {a}");
    }

    // --- Section III: decision diagrams -------------------------------------
    println!("\n== Decision diagram (Fig. 1b) ==");
    let mut dd = DdPackage::new();
    let state = dd.run_circuit(&bell)?;
    println!(
        "  nodes: {} (vs {} array entries)",
        dd.vector_node_count(&state),
        amps.len()
    );
    println!(
        "  amplitude reconstruction ⟨00|ψ⟩ = {} (multiply edge weights along the path)",
        dd.amplitude(&state, 0b00)
    );
    println!("  Graphviz (render with `dot -Tsvg`):");
    for line in dd.vector_to_dot(&state).lines() {
        println!("    {line}");
    }

    // --- Section IV: tensor networks ----------------------------------------
    println!("\n== Tensor network (Fig. 2) ==");
    let tn = TensorNetwork::from_circuit(&bell);
    println!(
        "  {} tensors, {} bytes total (linear in gates)",
        tn.num_tensors(),
        tn.memory_bytes()
    );
    let amp = tn.amplitude(0b11, PlanKind::Greedy)?;
    println!("  fixing outputs to |11⟩ and contracting to a scalar: {amp}");

    // --- Section V: ZX-calculus ----------------------------------------------
    println!("\n== ZX-calculus (Fig. 3) ==");
    let mut diagram = Diagram::from_circuit(&bell)?;
    println!(
        "  circuit as diagram: {} spiders, {} wires",
        diagram.num_spiders(),
        diagram.num_edges()
    );
    diagram.plug_basis_inputs(&[false, false]);
    let before = diagram.num_spiders();
    simplify::full_simp(&mut diagram);
    println!(
        "  plugged |00⟩ and simplified: {} spiders -> {} spiders",
        before,
        diagram.num_spiders()
    );
    let m = diagram.to_matrix();
    println!("  resulting state (Fig. 3b):");
    for i in 0..4 {
        println!("    |{:02b}⟩: {}", i, m.get(i, 0));
    }

    Ok(())
}
