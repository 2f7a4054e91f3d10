//! Backend-fit advice (`QDT404`): a wide Clifford-only circuit priced
//! onto an exponential backend deserves a nudge toward structured
//! simulation.
//!
//! Clifford circuits are classically simulable in polynomial time
//! (Gottesman–Knill); past [`QDT404_WIDTH_THRESHOLD`] qubits a dense
//! state vector pays `2^n` for a state the `stabilizer` tableau engine
//! tracks in `O(n²)` bits. The `auto` spec follows the same cost
//! model — its stabilizer arm is feasible exactly when this lint
//! fires — so the diagnostic names the spec `auto` would dispatch to.

use crate::cost::{clifford_only_and_wide, QDT404_WIDTH_THRESHOLD};
use crate::{CircuitFacts, Code, Diagnostic, DispatchDecision};

/// Flags wide Clifford-only circuits for which exponential-cost
/// backends are predicted overkill (`QDT404`); `decision` is the cost
/// model's verdict on the same facts.
pub(crate) fn backend_fit(facts: &CircuitFacts, decision: &DispatchDecision) -> Vec<Diagnostic> {
    if !clifford_only_and_wide(facts) {
        return Vec::new();
    }
    vec![Diagnostic::new(
        Code::CliffordOnlyExponential,
        None,
        format!(
            "the circuit is Clifford-only on {} qubits (> {QDT404_WIDTH_THRESHOLD}): \
             an exponential dense backend is overkill; use the `stabilizer` tableau \
             engine (the cost model picks `{}`)",
            facts.resources.num_qubits, decision.chosen
        ),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{circuit_facts, plan_dispatch};
    use qdt_circuit::{generators, Circuit};

    fn lint(qc: &Circuit) -> Vec<Diagnostic> {
        let facts = circuit_facts(qc);
        backend_fit(&facts, &plan_dispatch(&facts))
    }

    #[test]
    fn wide_clifford_circuit_is_flagged() {
        let diags = lint(&generators::ghz(24));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::CliffordOnlyExponential);
        assert!(
            diags[0].message.contains("`stabilizer`"),
            "suggests the stabilizer spec: {}",
            diags[0].message
        );
        assert!(
            diags[0].message.contains("picks `stabilizer`"),
            "the cost model agrees with the suggestion: {}",
            diags[0].message
        );
    }

    #[test]
    fn narrow_clifford_circuit_is_not_flagged() {
        assert!(lint(&generators::ghz(8)).is_empty());
    }

    #[test]
    fn wide_non_clifford_circuit_is_not_flagged() {
        let mut qc = generators::ghz(24);
        qc.t(0);
        assert!(lint(&qc).is_empty());
    }

    #[test]
    fn empty_circuit_is_not_flagged() {
        assert!(lint(&Circuit::new(32)).is_empty());
    }
}
