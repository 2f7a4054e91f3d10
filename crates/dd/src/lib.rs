//! Decision diagrams for quantum computing — Section III of the
//! reproduced paper.
//!
//! Decision diagrams (DDs) uncover and exploit redundancies in quantum
//! states and operations: a state vector of `2^n` amplitudes is decomposed
//! recursively by the most significant qubit, equal sub-vectors are shared
//! as a single node, and common factors are pulled into edge weights. For
//! structured states (GHZ, basis states, W states, …) this turns the
//! exponential array of Section II into a *linear* number of nodes.
//!
//! The implementation follows the QMDD line of work (the paper's
//! references \[28\], \[29\], \[9\]):
//!
//! * [`DdPackage`] owns the node arenas, unique tables (for node
//!   sharing), compute caches (for memoized addition/multiplication) and
//!   the tolerance-canonicalising complex table.
//! * [`VectorDd`] / [`MatrixDd`] are root edges of vector and matrix
//!   diagrams, created and combined through package methods.
//! * [`DdEngine`] runs circuits on vector DDs behind the
//!   `SimulationEngine` trait — measurement, reset and noise included,
//!   through the shot executor and the trajectory engine;
//!   [`equivalence`](crate::check_equivalence) multiplies one circuit
//!   with the inverse of another and checks the result against the
//!   identity DD — the paper's verification task.
//! * [`to_dot`](crate::DdPackage::vector_to_dot) renders diagrams in
//!   Graphviz format, standing in for the paper's web-based visualiser.
//!
//! # Example: the Bell state of Fig. 1b
//!
//! ```
//! use qdt_dd::DdPackage;
//! use qdt_circuit::generators;
//!
//! let mut dd = DdPackage::new();
//! let bell = dd.run_circuit(&generators::bell())?;
//! // The DD has 3 nodes (one q1 node, two q0 nodes) — linear, not 2^n.
//! assert_eq!(dd.vector_node_count(&bell), 3);
//! // Amplitude reconstruction: multiply edge weights along the path.
//! let amp = dd.amplitude(&bell, 0b00);
//! assert!((amp.re - 1.0 / 2f64.sqrt()).abs() < 1e-12);
//! # Ok::<(), qdt_dd::DdError>(())
//! ```

pub mod approx;
mod dot;
mod engine;
mod equivalence;
mod matrix;
mod package;
mod table;
mod vector;

pub use approx::ApproxResult;
pub use engine::DdEngine;
pub use equivalence::{check_equivalence, check_equivalence_by_cost, EquivalenceResult};
pub use package::{DdMemory, DdPackage, DdStats, MatrixDd, VectorDd};

use std::fmt;

/// Error type for decision-diagram operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DdError {
    /// The circuit contains a non-unitary instruction in a context that
    /// requires unitarity.
    NonUnitary {
        /// Name of the offending operation.
        op: String,
    },
    /// Two diagrams from different qubit counts were combined.
    QubitCountMismatch {
        /// Qubit count of the left operand.
        left: usize,
        /// Qubit count of the right operand.
        right: usize,
    },
}

impl fmt::Display for DdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdError::NonUnitary { op } => {
                write!(
                    f,
                    "instruction {op} is not unitary; run it through ShotExecutor \
                     (qdt::sample_dynamic)"
                )
            }
            DdError::QubitCountMismatch { left, right } => {
                write!(f, "qubit count mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for DdError {}
