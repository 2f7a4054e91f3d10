//! Golden-amplitude fixtures: canonical circuits checked against
//! hand-computed amplitude values, on the sequential kernels *and* on
//! the parallel ones — so a wrong-but-self-consistent kernel (one that
//! agrees with itself across thread counts while computing the wrong
//! state) cannot slip past the differential tests.

use std::f64::consts::PI;

use qdt::circuit::{generators, Circuit};
use qdt::complex::Complex;
use qdt::create_engine;
use qdt::engine::run;

/// Per-amplitude tolerance for the fixtures (the values are exact up to
/// a handful of floating-point rounding steps).
const TOL: f64 = 1e-12;

/// Engine specs every fixture is checked on: sequential reference,
/// parallel kernels with the chunked path forced (`threshold=1`), and
/// the gate-fused kernels — sequential and parallel.
const SPECS: [&str; 5] = [
    "array(threads=1)",
    "array(threads=2,threshold=1)",
    "array(threads=4,threshold=1)",
    "array(fuse=5)",
    "array(fuse=5,threads=4,threshold=1)",
];

/// Runs `qc` on `spec` and checks every amplitude against `want`.
fn check_fixture(name: &str, qc: &Circuit, want: &[Complex]) {
    for spec in SPECS {
        let mut e = create_engine(spec).unwrap();
        run(e.as_mut(), qc).unwrap();
        let got = e.amplitudes().unwrap();
        assert_eq!(got.len(), want.len(), "{name} on {spec}: dimension");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g.re - w.re).abs() < TOL && (g.im - w.im).abs() < TOL,
                "{name} on {spec}: amplitude {k} is {g}, want {w}"
            );
        }
    }
}

#[test]
fn bell_state_amplitudes() {
    // H then CX: (|00⟩ + |11⟩)/√2.
    let r = 1.0 / 2f64.sqrt();
    let want = [
        Complex::new(r, 0.0),
        Complex::ZERO,
        Complex::ZERO,
        Complex::new(r, 0.0),
    ];
    check_fixture("bell", &generators::bell(), &want);
}

#[test]
fn ghz_16_amplitudes() {
    // GHZ on 16 qubits: (|0…0⟩ + |1…1⟩)/√2, zero everywhere else.
    let n = 16;
    let dim = 1usize << n;
    let r = 1.0 / 2f64.sqrt();
    let mut want = vec![Complex::ZERO; dim];
    want[0] = Complex::new(r, 0.0);
    want[dim - 1] = Complex::new(r, 0.0);
    check_fixture("ghz-16", &generators::ghz(n), &want);
}

#[test]
fn qft_6_of_zero_state_is_uniform() {
    // QFT|0⟩ = uniform superposition: every amplitude exactly 1/8.
    let want = vec![Complex::new(0.125, 0.0); 64];
    check_fixture("qft-6|0⟩", &generators::qft(6, true), &want);
}

#[test]
fn qft_6_of_basis_one_carries_the_dft_phases() {
    // QFT|j⟩ has amplitudes e^{2πi·jk/2^n}/√(2^n); with j = 1, n = 6
    // that is e^{2πik/64}/8 — the full 64-point DFT phase ramp.
    let mut qc = Circuit::new(6);
    qc.x(0);
    qc.append(&generators::qft(6, true));
    let want: Vec<Complex> = (0..64)
        .map(|k| {
            let theta = 2.0 * PI * k as f64 / 64.0;
            Complex::new(theta.cos() / 8.0, theta.sin() / 8.0)
        })
        .collect();
    check_fixture("qft-6|1⟩", &qc, &want);
}
