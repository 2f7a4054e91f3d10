//! Analytical answers, computed by the benchmark itself without any
//! simulation engine.

use std::f64::consts::PI;

use qdt::circuit::{Circuit, Gate, OpKind, Pauli, PauliString};
use qdt::complex::Complex;

/// Amplitude `⟨k|QFT|x⟩ = e^{2πi·x·k/N}/√N` of the textbook QFT (the
/// generator with swaps) on `n` qubits, qubit `q` being bit `q` of the
/// basis index.
pub fn qft_amplitude(n: usize, x: u64, k: u64) -> Complex {
    #[allow(clippy::cast_precision_loss)]
    let dim = (1u64 << n) as f64;
    // Reduce x·k mod N first so the angle stays exact for large widths.
    let xk = (u128::from(x) * u128::from(k)) % (1u128 << n);
    #[allow(clippy::cast_precision_loss)]
    let angle = 2.0 * PI * xk as f64 / dim;
    Complex::new(angle.cos(), angle.sin()) * (1.0 / dim.sqrt())
}

/// `⟨X_q⟩` on `QFT|x⟩`, a product state whose qubit `q` carries the
/// relative phase `2π·x·2^q/N`.
pub fn qft_x_expectation(n: usize, x: u64, q: usize) -> f64 {
    let xk = (u128::from(x) << q) % (1u128 << n);
    #[allow(clippy::cast_precision_loss)]
    let angle = 2.0 * PI * xk as f64 / (1u64 << n) as f64;
    angle.cos()
}

/// The single-qubit Pauli string `X_q` on `n` qubits.
pub fn single_pauli(n: usize, q: usize, p: Pauli) -> PauliString {
    let mut ops = vec![Pauli::I; n];
    ops[q] = p;
    PauliString::new(ops)
}

/// A stabilizer of `C|0…0⟩` for a circuit over `{H, S, CX}`: the image
/// `C·Z_q·C†` of `Z_q`, with its sign. `⟨P⟩ = sign` on the output state.
///
/// Tracks the Pauli row with the Aaronson–Gottesman update rules.
///
/// # Panics
///
/// Panics on a gate outside `{H, S, CX}` or a non-unitary instruction.
pub fn propagate_z(circuit: &Circuit, q: usize) -> (PauliString, f64) {
    let n = circuit.num_qubits();
    let mut x = vec![false; n];
    let mut z = vec![false; n];
    let mut r = false;
    z[q] = true;
    for inst in circuit.iter() {
        let OpKind::Unitary {
            gate,
            target,
            controls,
        } = &inst.kind
        else {
            panic!("propagate_z takes unitary H/S/CX circuits");
        };
        let t = *target;
        match (gate, controls.as_slice()) {
            (Gate::H, []) => {
                r ^= x[t] && z[t];
                std::mem::swap(&mut x[t], &mut z[t]);
            }
            (Gate::S, []) => {
                r ^= x[t] && z[t];
                z[t] ^= x[t];
            }
            (Gate::X, [c]) => {
                let c = *c;
                r ^= x[c] && z[t] && (x[t] == z[c]);
                x[t] ^= x[c];
                z[c] ^= z[t];
            }
            other => panic!("propagate_z: unsupported gate {other:?}"),
        }
    }
    let ops = x
        .iter()
        .zip(&z)
        .map(|(&xb, &zb)| match (xb, zb) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (false, true) => Pauli::Z,
            (true, true) => Pauli::Y,
        })
        .collect();
    (PauliString::new(ops), if r { -1.0 } else { 1.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt::circuit::generators;

    fn state_of(qc: &Circuit) -> Box<dyn qdt::SimulationEngine> {
        let mut e = qdt::create_engine("array").expect("array spec");
        qdt::engine::run(e.as_mut(), qc).expect("runs");
        e
    }

    #[test]
    fn qft_formula_matches_the_array_engine() {
        let n = 5;
        for x in [0u64, 1, 6, 19, 31] {
            let mut qc = Circuit::new(n);
            for q in 0..n {
                if x >> q & 1 == 1 {
                    qc.x(q);
                }
            }
            qc.append(&generators::qft(n, true));
            let mut e = state_of(&qc);
            let amps = e.amplitudes().expect("dense output");
            for (k, a) in amps.iter().enumerate() {
                let want = qft_amplitude(n, x, k as u64);
                assert!(a.approx_eq(want, 1e-12), "x={x} k={k}: {a} vs {want}");
            }
            for q in 0..n {
                let got = e
                    .expectation(&single_pauli(n, q, Pauli::X))
                    .expect("expectation");
                assert!(
                    (got - qft_x_expectation(n, x, q)).abs() < 1e-12,
                    "x={x} q={q}"
                );
            }
        }
    }

    #[test]
    fn propagated_z_stabilizes_the_output() {
        for seed in 0..8 {
            let qc = generators::random_clifford_seeded(6, 5, seed);
            let mut e = state_of(&qc);
            for q in 0..6 {
                let (p, sign) = propagate_z(&qc, q);
                let got = e.expectation(&p).expect("expectation");
                assert!(
                    (got - sign).abs() < 1e-9,
                    "seed {seed} q {q}: {p} {got} vs {sign}"
                );
            }
        }
    }
}
