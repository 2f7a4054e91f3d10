//! Grover search, simulated on CLI-selectable backends.
//!
//! Builds a Grover circuit for a marked item, runs it on every backend
//! named on the command line (any engine spec `qdt::create_engine`
//! accepts: `array`, `dd`, `tensor-network`, `mps:16`, …), compares the success
//! probabilities, and samples measurement outcomes.
//!
//! Run with:
//! `cargo run --example grover_search -- [num_qubits] [marked] [backend...]`

use qdt::circuit::generators;
use qdt::{amplitude, sample};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map_or(Ok(5), |a| a.parse())?;
    let marked: u64 = args.next().map_or(Ok(0b10110 % (1 << n)), |a| a.parse())?;
    assert!(marked < (1 << n), "marked item out of range");
    let mut backends: Vec<String> = args.collect();
    if backends.is_empty() {
        backends = vec!["array".into(), "dd".into()];
    }
    // Reject malformed specs up front with `create_engine`'s diagnostic.
    for spec in &backends {
        qdt::create_engine(spec)?;
    }

    let iters = generators::grover_optimal_iterations(n);
    let qc = generators::grover(n, marked, iters);
    println!(
        "Grover search: {n} qubits, marked |{marked:0width$b}⟩, {iters} iterations, {} gates",
        qc.len(),
        width = n
    );

    for backend in &backends {
        // Not every backend handles every circuit (MPS needs ≤2-qubit
        // gates; Grover's oracle is n-controlled): report, don't abort.
        match amplitude(&qc, marked as u128, backend) {
            Ok(amp) => println!("  {backend:<18} P(marked) = {:.4}", amp.norm_sqr()),
            Err(e) => println!("  {backend:<18} unsupported: {e}"),
        }
    }

    let shots = 1000;
    let counts = sample(&qc, shots, "dd", 42)?;
    let hits = counts.get(&(marked as u128)).copied().unwrap_or(0);
    println!("  sampling {shots} shots on the DD backend: {hits} hits on the marked item");
    let mut top: Vec<_> = counts.into_iter().collect();
    top.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    println!("  top outcomes:");
    for (value, count) in top.into_iter().take(4) {
        println!("    |{value:0n$b}⟩: {count}");
    }

    Ok(())
}
