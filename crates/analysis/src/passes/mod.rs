//! Analysis passes, each a direct scan of the instruction stream.
//!
//! Each submodule exposes a *facts* function (pure data, consumed by
//! the cost model and the reporters) and, where a finding is worth a
//! diagnostic, a lint function that reads the [`crate::CircuitFacts`]
//! the analyzer computed once.

mod backend_fit;
mod clifford;
mod commutation;
mod dead_clbit;
mod interaction;
mod lightcone;

pub(crate) use backend_fit::backend_fit;
pub use clifford::{clifford_regions, CliffordRegion};
pub(crate) use commutation::cancelling_pairs;
pub(crate) use dead_clbit::dead_clbit_writes;
pub(crate) use interaction::isolated_qubits;
pub use interaction::{interaction_facts, InteractionFacts};
pub(crate) use lightcone::dead_gates;
pub use lightcone::{lightcone_facts, LightconeFacts};
