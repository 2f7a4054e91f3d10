//! Array-based quantum circuit simulation — Section II of the reproduced
//! paper.
//!
//! Quantum states are stored as one-dimensional arrays of `2^n` complex
//! amplitudes and operations as (implicit or explicit) `2^n × 2^n`
//! matrices. This is the most intuitive representation and the ground
//! truth for every other data structure in the suite, but its memory
//! footprint grows exponentially with the qubit count — the paper puts the
//! practical limit below 50 qubits; on a laptop it is nearer 26–30.
//!
//! Two representations of a circuit's action are provided, mirroring the
//! paper's description:
//!
//! * [`StateVector`] applies 2×2 gate kernels directly to the amplitude
//!   array (the efficient way actual array-based simulators work), and
//! * [`circuit_unitary`] builds the full `2^n × 2^n` operator by Kronecker
//!   products and matrix multiplication (the naive textbook path of the
//!   paper's Example 1) — exponentially expensive, but exact and useful
//!   for cross-validation.
//!
//! Equivalence checking uses neither matrix: [`miter_phase`] runs the
//! miter `G₂⁻¹·G₁` on its `2n`-qubit Choi state through the engine and
//! compares every entry with `λ·I`.
//!
//! Circuits execute through one path: [`ArrayEngine`], the array backend
//! of the `SimulationEngine` trait. Measurement, reset and classical
//! control run through the same engine under the shot executor
//! (`qdt_engine::ShotExecutor`, or `qdt::sample_dynamic`).
//!
//! The [`DensityMatrix`] substrate extends the representation to mixed
//! states and Kraus channels (the paper's reference \[13\]). It stores ρ
//! as a [`StateVector`] of `2n` qubits (row bits above column bits), so
//! its gates run on the same kernels; only the channel's 4×4
//! superoperator pass is its own. The `qdt-noise` crate drives it with
//! noise models.
//!
//! # Example
//!
//! ```
//! use qdt_circuit::generators;
//! use qdt_array::StateVector;
//!
//! // The Bell state of the paper's Fig. 1a.
//! let state = StateVector::from_circuit(&generators::bell())?;
//! let probs = state.probabilities();
//! assert!((probs[0b00] - 0.5).abs() < 1e-12);
//! assert!((probs[0b11] - 0.5).abs() < 1e-12);
//! # Ok::<(), qdt_array::ArrayError>(())
//! ```

mod density;
mod engine;
mod frame;
pub mod fusion;
mod miter;
pub mod simd;
mod state;
mod unitary;

pub use density::{DensityMatrix, MAX_DENSITY_QUBITS};
pub use engine::ArrayEngine;
pub use fusion::{plan_groups, FusedGroup, Fuser, GroupSpan, MAX_FUSE_WIDTH};
pub use miter::{miter_phase, MiterPhase, MITER_MAX_QUBITS};
pub use simd::simd_active;
pub use state::StateVector;
pub use unitary::{circuit_unitary, instruction_unitary};

use std::fmt;

/// Error type for array-based simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayError {
    /// The amplitude vector length was not a power of two.
    NotPowerOfTwo {
        /// The offending vector length.
        len: usize,
    },
    /// The state norm deviated from 1 beyond tolerance.
    NotNormalized {
        /// The measured norm.
        norm: f64,
    },
    /// The circuit contains an instruction the deterministic paths cannot
    /// execute (measurement/reset need an RNG — run the circuit through
    /// the shot executor instead).
    NonUnitary {
        /// Name of the offending operation.
        op: String,
    },
    /// The qubit count exceeds what fits in memory / a `usize` index.
    TooManyQubits {
        /// The requested qubit count.
        num_qubits: usize,
    },
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::NotPowerOfTwo { len } => {
                write!(f, "amplitude vector length {len} is not a power of two")
            }
            ArrayError::NotNormalized { norm } => {
                write!(f, "state has norm {norm}, expected 1")
            }
            ArrayError::NonUnitary { op } => {
                write!(
                    f,
                    "instruction {op} is not unitary; run it through ShotExecutor \
                     (qdt::sample_dynamic)"
                )
            }
            ArrayError::TooManyQubits { num_qubits } => {
                write!(f, "{num_qubits} qubits exceed the array-based limit")
            }
        }
    }
}

impl std::error::Error for ArrayError {}
