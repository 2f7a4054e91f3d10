//! `qdt-stabilizer` — a bit-packed Aaronson–Gottesman stabilizer
//! tableau backend.
//!
//! The reproduced paper's portfolio (arrays, decision diagrams, tensor
//! networks, ZX) is exponential or bond-limited on every member; the
//! one regime none of them reaches is *large Clifford circuits*. The
//! CHP tableau of Aaronson & Gottesman ("Improved simulation of
//! stabilizer circuits") tracks such states in `O(n²)` bits and applies
//! gates in `O(n)`. Here the bits are packed into `u64` words and, during
//! a run of gates, stored as bit columns (Gidney, "Stim: a fast
//! stabilizer circuit simulator"), so a CX on a 1000-qubit register
//! sweeps the 32 words of each of its five columns (two X, two Z, the
//! signs). Measurements and queries switch the tableau to rows with
//! 64×64 block transposes, only when they need rows.
//!
//! The crate provides:
//!
//! * [`Tableau`] — the 2n×2n destabilizer/stabilizer matrix with
//!   word-parallel row multiplication and the deterministic-vs-random
//!   measurement split;
//! * [`Canonical`] — the reduced-echelon form that answers global
//!   sampling and single-amplitude queries in `O(k·n/64)` per shot;
//! * [`StabilizerEngine`] — the [`SimulationEngine`] implementation:
//!   dynamic-capable (`project`/`probability_of_one`/`snapshot`), with
//!   native Pauli-channel noise (`stochastic_kraus`), registered as the
//!   `stabilizer` spec in the umbrella crate.
//!
//! Non-Clifford gates are rejected with an error naming the supported
//! gate set; the layout switch and the measurement update are scheduled
//! over the `qdt-parallel` pool with disjoint 64-row blocks, so
//! histograms are bit-identical at any thread count (the PR 5
//! determinism contract).
//!
//! [`SimulationEngine`]: qdt_engine::SimulationEngine

mod engine;
mod tableau;

pub use engine::StabilizerEngine;
pub use tableau::{Canonical, MeasureKind, PauliImage, SingleLut, Tableau};
