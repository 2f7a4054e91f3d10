//! Quantum circuit compilation — the second design task of the
//! reproduced paper's introduction.
//!
//! Circuits are written at a high abstraction level and must be adapted
//! to the constraints of real devices: a **limited gate set** and
//! **limited connectivity**. This crate implements both halves:
//!
//! * [`decompose`] / [`rebase`](decompose::rebase) — lower arbitrary
//!   gates (multi-controlled, controlled-U, SWAP) to one- and two-qubit
//!   primitives and rebase single-qubit gates onto restricted bases
//!   (`{H,S,T,CX}` Clifford+T or the IBM-style `{RZ,√X,X,CX}`);
//! * [`optimize`] — peephole optimisation: inverse cancellation,
//!   rotation merging and single-qubit gate fusion;
//! * [`coupling`] / [`routing`] — coupling maps (linear, ring, grid,
//!   heavy-hex-like, full) and SWAP-insertion routing with shortest-path
//!   movement, returning the final qubit permutation for verification.
//!
//! Everything is semantics-checked in the test suites against the array
//! and decision-diagram backends — compilation *changes the structure*
//! of circuits, which is exactly why the paper's third design task
//! (verification) exists.
//!
//! # Example
//!
//! ```
//! use qdt_circuit::generators;
//! use qdt_compile::{compile, coupling::CouplingMap, target::GateSet};
//!
//! let qc = generators::qft(4, true);
//! let map = CouplingMap::linear(4);
//! let out = compile(&qc, &GateSet::ibm_basis(), &map)?;
//! // Every 2-qubit gate now respects the line connectivity.
//! assert!(out.circuit.two_qubit_gate_count() >= qc.two_qubit_gate_count());
//! # Ok::<(), qdt_compile::CompileError>(())
//! ```

pub mod coupling;
pub mod decompose;
pub mod layout;
pub mod optimize;
pub mod routing;
pub mod target;

use qdt_circuit::{Circuit, Instruction};

use coupling::CouplingMap;
use routing::RoutedCircuit;
use target::GateSet;

use std::fmt;

/// The two qubits of a two-qubit unitary (target first), or `None` for
/// anything else.
pub(crate) fn two_qubit_operands(inst: &Instruction) -> Option<(usize, usize)> {
    let mut qs = inst.qubits();
    match (inst.is_unitary(), qs.len()) {
        (true, 2) => Some((qs.next()?, qs.next()?)),
        _ => None,
    }
}

/// Error type for compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A gate cannot be expressed in the requested gate set.
    NotRepresentable {
        /// Name of the gate that failed to translate.
        gate: String,
        /// The target gate set.
        basis: String,
    },
    /// The circuit does not fit the device (too many qubits).
    TooManyQubits {
        /// Width of the circuit.
        circuit: usize,
        /// Width of the device.
        device: usize,
    },
    /// Routing requires gates on at most two qubits.
    GateTooWide {
        /// Name of the offending operation.
        op: String,
    },
    /// The coupling map is disconnected.
    DisconnectedDevice,
    /// A non-unitary instruction in a unitary-only pipeline stage.
    NonUnitary {
        /// Name of the offending operation.
        op: String,
    },
    /// An explicit initial layout is not an injective map into the
    /// device: an entry names a site outside it, or a site an earlier
    /// entry already took.
    InvalidLayout {
        /// The logical qubit whose entry is invalid.
        logical: usize,
        /// The physical site it names.
        site: usize,
        /// Width of the device.
        device: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotRepresentable { gate, basis } => {
                write!(f, "gate {gate} is not representable in basis {basis}")
            }
            CompileError::TooManyQubits { circuit, device } => {
                write!(f, "circuit needs {circuit} qubits, device has {device}")
            }
            CompileError::GateTooWide { op } => {
                write!(f, "routing requires ≤2-qubit gates, found {op}")
            }
            CompileError::DisconnectedDevice => write!(f, "coupling map is disconnected"),
            CompileError::NonUnitary { op } => {
                write!(f, "instruction {op} is not unitary")
            }
            CompileError::InvalidLayout {
                logical,
                site,
                device,
            } => {
                if site >= device {
                    write!(
                        f,
                        "layout maps qubit {logical} to site {site}, outside the \
                         {device}-qubit device"
                    )
                } else {
                    write!(
                        f,
                        "layout maps qubit {logical} to site {site}, which an earlier \
                         qubit already takes"
                    )
                }
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Runs the full pipeline: decompose to the gate set, optimise, route
/// onto the coupling map, optimise again.
///
/// # Errors
///
/// Propagates errors from each stage (unrepresentable gates, width
/// mismatch, disconnected devices).
pub fn compile(
    circuit: &Circuit,
    gate_set: &GateSet,
    map: &CouplingMap,
) -> Result<RoutedCircuit, CompileError> {
    let lowered = decompose::rebase(circuit, gate_set)?;
    let optimized = optimize::optimize(&lowered);
    let mut routed = routing::route(&optimized, map)?;
    // Routing inserts SWAPs; if the target set lacks them, lower again
    // (SWAP → 3 CX is always available) and re-optimise.
    routed.circuit = decompose::rebase(&routed.circuit, gate_set)?;
    routed.circuit = optimize::optimize(&routed.circuit);
    Ok(routed)
}
