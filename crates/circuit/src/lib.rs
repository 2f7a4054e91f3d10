//! Quantum-circuit intermediate representation for the `qdt` suite.
//!
//! Every data structure in the reproduced paper — arrays (Sec. II),
//! decision diagrams (Sec. III), tensor networks (Sec. IV) and ZX-diagrams
//! (Sec. V) — consumes quantum circuits. This crate provides:
//!
//! * [`Gate`] — the single-qubit gate alphabet with exact 2×2 matrices,
//!   inverses, and names.
//! * [`Circuit`] / [`Instruction`] — a gate-list IR with arbitrary control
//!   qubits, measurement, reset, noise [`Channel`]s and barriers, plus a
//!   fluent builder API.
//! * [`qasm`] — an OpenQASM 2.0 subset parser and writer, so circuits can
//!   round-trip through the lingua franca of quantum toolchains.
//! * [`generators`] — the benchmark families used throughout the paper's
//!   community (Bell/GHZ/W states, QFT, Grover, Bernstein–Vazirani,
//!   Deutsch–Jozsa, QPE, random Clifford and Clifford+T circuits,
//!   hardware-efficient ansätze).
//!
//! # Example
//!
//! ```
//! use qdt_circuit::Circuit;
//!
//! // The Bell circuit from Fig. 1–3 of the paper.
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! assert_eq!(bell.len(), 2);
//! assert_eq!(bell.two_qubit_gate_count(), 1);
//! ```

mod circuit;
mod gate;
pub mod generators;
mod pauli;
pub mod qasm;

pub use circuit::{
    Channel, Circuit, ClassicalState, Condition, FusionSupport, Instruction, OpKind, QubitMap,
    Qubits,
};
pub use gate::Gate;
pub use pauli::{ParsePauliError, Pauli, PauliString};

use std::fmt;

/// Error type for circuit construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A qubit index exceeded the circuit width.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// The circuit width.
        num_qubits: usize,
    },
    /// A classical bit index exceeded the classical register width.
    ClbitOutOfRange {
        /// The offending classical bit index.
        clbit: usize,
        /// The classical register width.
        num_clbits: usize,
    },
    /// The same qubit was used twice in one instruction.
    DuplicateQubit {
        /// The qubit that appears more than once.
        qubit: usize,
    },
    /// A gate angle is NaN or infinite.
    NonFiniteParameter {
        /// Name of the gate carrying the angle.
        gate: &'static str,
    },
    /// An operation without a unitary inverse (measurement/reset) blocked
    /// circuit inversion.
    NotInvertible {
        /// Name of the non-invertible operation.
        op: String,
    },
    /// A [`Channel`] was given no Kraus operators, or one that is not 2×2.
    InvalidChannel {
        /// What is wrong with the operators.
        reason: &'static str,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {num_qubits}-qubit circuit"
                )
            }
            CircuitError::ClbitOutOfRange { clbit, num_clbits } => {
                write!(
                    f,
                    "classical bit {clbit} out of range for {num_clbits} bits"
                )
            }
            CircuitError::DuplicateQubit { qubit } => {
                write!(
                    f,
                    "qubit {qubit} used more than once in a single instruction"
                )
            }
            CircuitError::NonFiniteParameter { gate } => {
                write!(f, "gate {gate} has a non-finite angle")
            }
            CircuitError::NotInvertible { op } => {
                write!(f, "operation {op} has no unitary inverse")
            }
            CircuitError::InvalidChannel { reason } => write!(f, "invalid channel: {reason}"),
        }
    }
}

impl std::error::Error for CircuitError {}
