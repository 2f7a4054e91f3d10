//! `qdt-noise` — noise-aware simulation for the qdt suite.
//!
//! Real devices decohere; the paper's simulation story (reference
//! \[13\], Grurl/Fuß/Wille) therefore needs two more pieces beyond the
//! pure-state engines, and this crate provides both over the same
//! [`SimulationEngine`](qdt_engine::SimulationEngine) trait:
//!
//! * **Channels and models** — [`KrausChannel`] (depolarizing,
//!   amplitude/phase damping, bit/phase flip) with CPTP validation, and
//!   [`NoiseModel`] attaching channels to instructions by
//!   [`GateSelector`] rule plus a classical readout-flip error;
//! * **[`DensityMatrixEngine`]** — exact noisy simulation on the dense
//!   `2^n × 2^n` density matrix: channels apply as superoperators
//!   `ρ → Σ Kᵢ ρ Kᵢ†`. Quadratic memory, but the ground truth;
//! * **[`TrajectoryEngine`]** — Monte-Carlo noisy simulation: each
//!   trajectory keeps a *pure* state on any substrate engine that
//!   advertises `stochastic_kraus` (array, decision diagram, MPS),
//!   samples one Kraus operator per channel firing with its Born
//!   probability, and renormalises. Trajectories run in parallel
//!   across `std::thread` workers with per-trajectory seeds, so fixed
//!   seeds reproduce bit-identically at any worker count.
//!
//! The umbrella crate `qdt` builds both engines from the specs
//! `density(...)` and `traj(...):substrate`; a trajectory engine gets
//! its substrates from a [`qdt_engine::EngineFactory`].
//!
//! # Example: trajectory average converges to the density matrix
//!
//! ```
//! use std::sync::Arc;
//! use qdt_engine::{run, SimulationEngine};
//! use qdt_noise::{
//!     DensityMatrixEngine, KrausChannel, NoiseModel, TrajectoryConfig, TrajectoryEngine,
//! };
//!
//! let mut qc = qdt_circuit::Circuit::new(2);
//! qc.h(0).cx(0, 1);
//! let noise = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.05 });
//!
//! let mut exact = DensityMatrixEngine::with_noise(&noise)?;
//! run(&mut exact, &qc)?;
//! let zz: qdt_circuit::PauliString = "ZZ".parse().unwrap();
//! let truth = exact.expectation(&zz)?;
//!
//! let factory: qdt_engine::EngineFactory = Arc::new(|| {
//!     Ok(Box::new(qdt_engine::test_engine::ReferenceEngine::default())
//!         as Box<dyn SimulationEngine>)
//! });
//! let config = TrajectoryConfig { trajectories: 600, seed: 7, workers: 2 };
//! let mut sampled = TrajectoryEngine::new(factory, config, &noise)?;
//! run(&mut sampled, &qc)?;
//! assert!((sampled.expectation(&zz)? - truth).abs() < 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use qdt_engine::EngineError;

mod channel;
mod density;
mod model;
mod trajectory;

pub use channel::{channel_from_key, completeness_defect, KrausChannel, CPTP_TOLERANCE};
pub use density::DensityMatrixEngine;
pub use model::{CompiledNoise, GateSelector, NoiseModel, NoiseRule};
pub use qdt_array::MAX_DENSITY_QUBITS;
pub use trajectory::{TrajectoryConfig, TrajectoryEngine};

/// Errors of the noise layer: invalid channels/models, or substrate
/// engine failures surfaced during trajectory construction.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseError {
    /// A channel (or readout) parameter lies outside `[0, 1]`.
    InvalidParameter {
        /// The channel's name.
        channel: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A channel's operators violate the CPTP completeness relation
    /// `Σ Kᵢ†Kᵢ = I`.
    NotCptp {
        /// Display form of the channel.
        channel: String,
        /// The Frobenius defect `‖Σ Kᵢ†Kᵢ − I‖_F`.
        defect: f64,
    },
    /// A substrate engine error (construction or capability probing).
    Engine(EngineError),
}

impl fmt::Display for NoiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseError::InvalidParameter { channel, value } => {
                write!(f, "{channel} parameter {value} outside [0, 1]")
            }
            NoiseError::NotCptp { channel, defect } => {
                write!(
                    f,
                    "{channel} is not CPTP: ‖Σ K†K − I‖ = {defect:.3e} exceeds {CPTP_TOLERANCE:.0e}"
                )
            }
            NoiseError::Engine(e) => write!(f, "trajectory substrate: {e}"),
        }
    }
}

impl std::error::Error for NoiseError {}

impl From<EngineError> for NoiseError {
    fn from(e: EngineError) -> Self {
        NoiseError::Engine(e)
    }
}
