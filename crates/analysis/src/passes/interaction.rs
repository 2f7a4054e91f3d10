//! The qubit interaction graph, its cut-width, and the
//! entanglement-isolation lint (`QDT403`).
//!
//! Multi-qubit unitaries connect their qubits in the *interaction
//! graph*. Two derived facts feed the cost model:
//!
//! * **Connected components** — a qubit in no component with a measured
//!   qubit can never influence an observed outcome (`QDT403`).
//! * **Cut-width proxy** — sweep the qubits in their natural order, the
//!   one the MPS and DD engines run in, and count distinct interaction
//!   edges crossing each prefix cut; the maximum, further capped by the
//!   smaller side of the cut, estimates log₂ of the peak Schmidt rank an
//!   MPS sweep must carry. Chain-like circuits (GHZ, W) score 1 while
//!   all-to-all circuits (QFT) score ~n/2. A pair that interacts many
//!   times still counts as one edge, so the proxy can underestimate;
//!   the `auto` engine refuses a run whose MPS had to truncate.

use std::collections::{BTreeMap, BTreeSet};

use qdt_circuit::{Circuit, OpKind};

use crate::{CircuitFacts, Code, Diagnostic};

/// The interaction graph and its derived dataflow facts.
#[derive(Debug, Clone)]
pub struct InteractionFacts {
    /// Distinct interaction edges `(a, b)` with `a < b`, with the
    /// number of gates realising each.
    pub edges: BTreeMap<(usize, usize), usize>,
    /// Union-find root per qubit; qubits share a root iff some gate
    /// chain entangles them.
    pub component: Vec<usize>,
    /// Qubits touched by at least one gate.
    pub touched: Vec<bool>,
    /// The cut-width proxy: an estimate of log₂ of the peak Schmidt
    /// rank across the natural-order qubit sweep.
    pub cut_width: usize,
}

impl InteractionFacts {
    /// Whether qubits `a` and `b` are in the same entangled component.
    #[must_use]
    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.component[a] == self.component[b]
    }
}

/// Union-find with path halving.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Builds the interaction graph of `circuit` and computes its facts.
#[must_use]
pub fn interaction_facts(circuit: &Circuit) -> InteractionFacts {
    let nq = circuit.num_qubits();
    let mut edges: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut parent: Vec<usize> = (0..nq).collect();
    let mut touched = vec![false; nq];
    for inst in circuit.iter() {
        if !matches!(inst.kind, OpKind::Unitary { .. } | OpKind::Swap { .. }) {
            continue;
        }
        let qs = inst.qubits().filter(|&q| q < nq);
        for (i, x) in qs.clone().enumerate() {
            touched[x] = true;
            for y in qs.clone().skip(i + 1) {
                let (a, b) = (x.min(y), x.max(y));
                if a == b {
                    continue;
                }
                *edges.entry((a, b)).or_insert(0) += 1;
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra] = rb;
            }
        }
    }
    let component: Vec<usize> = (0..nq).map(|q| find(&mut parent, q)).collect();
    let cut_width = cut_width_of(nq, &edges);
    InteractionFacts {
        edges,
        component,
        touched,
        cut_width,
    }
}

/// The natural-order cut-width of `n` qubits: the maximum over prefix
/// cuts of the number of distinct edges crossing, capped per cut by the
/// smaller side's size (entanglement across a cut of `k` qubits is at
/// most `2^k` regardless of how many gates straddle it).
///
/// An edge `(a, b)` with `a < b` crosses cuts `a+1..=b`, so one
/// difference array over the cuts counts every crossing in O(n + E).
fn cut_width_of(n: usize, edges: &BTreeMap<(usize, usize), usize>) -> usize {
    // (edges starting to cross at this cut, edges no longer crossing it)
    let mut delta = vec![(0usize, 0usize); n + 1];
    for &(a, b) in edges.keys() {
        delta[a + 1].0 += 1;
        delta[b + 1].1 += 1;
    }
    let mut crossing = 0;
    let mut width = 0;
    for (cut, &(opened, closed)) in delta.iter().enumerate().take(n).skip(1) {
        crossing = crossing + opened - closed;
        width = width.max(crossing.min(cut).min(n - cut));
    }
    width
}

/// Flags qubits that gates touch but that can never be entangled with
/// any measured qubit (`QDT403`). Silent on circuits without
/// measurements.
pub(crate) fn isolated_qubits(circuit: &Circuit, facts: &CircuitFacts) -> Vec<Diagnostic> {
    let nq = circuit.num_qubits();
    let mut measured = BTreeSet::new();
    for inst in circuit.iter() {
        if let OpKind::Measure { qubit, .. } = inst.kind {
            if qubit < nq {
                measured.insert(qubit);
            }
        }
    }
    if measured.is_empty() {
        return Vec::new();
    }
    let facts = &facts.interaction;
    let mut out = Vec::new();
    for q in 0..nq {
        if !facts.touched[q] || measured.contains(&q) {
            continue;
        }
        if measured.iter().any(|&m| facts.connected(q, m)) {
            continue;
        }
        out.push(Diagnostic::new(
            Code::UnentangledQubit,
            None,
            format!(
                "qubit {q} is touched by gates but never entangled with any \
                 measured qubit; its state cannot affect an observed outcome"
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit_facts;

    fn lint(qc: &Circuit) -> Vec<Diagnostic> {
        isolated_qubits(qc, &circuit_facts(qc))
    }
    use qdt_circuit::generators;

    /// The quadratic cut width the linear one replaced, kept as its
    /// oracle: every cut counts every edge.
    fn oracle_cut_width(nq: usize, edges: &BTreeMap<(usize, usize), usize>) -> usize {
        let mut width = 0;
        for cut in 1..nq {
            let crossing = edges.keys().filter(|&&(a, b)| a < cut && b >= cut).count();
            width = width.max(crossing.min(cut).min(nq - cut));
        }
        width
    }

    fn assert_matches_oracle(qc: &Circuit, label: &str) {
        let facts = interaction_facts(qc);
        assert_eq!(
            facts.cut_width,
            oracle_cut_width(qc.num_qubits(), &facts.edges),
            "{label}: cut width"
        );
    }

    #[test]
    fn linear_cut_width_matches_the_quadratic_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for i in 0..500 {
            let n = rng.gen_range(1usize..40);
            let qc = match i % 4 {
                0 => generators::random_circuit(n, rng.gen_range(1usize..8), &mut rng),
                1 => generators::random_clifford_t(n, rng.gen_range(1usize..8), 0.3, &mut rng),
                2 => generators::random_clifford(n, rng.gen_range(1usize..8), &mut rng),
                // Sparse random graphs: a few long-range two-qubit gates.
                _ => {
                    let mut qc = Circuit::new(n.max(2));
                    for _ in 0..rng.gen_range(0..2 * n) {
                        let a = rng.gen_range(0..n.max(2));
                        let b = rng.gen_range(0..n.max(2));
                        if a != b {
                            qc.cx(a, b);
                        }
                    }
                    qc
                }
            };
            assert_matches_oracle(&qc, &format!("random #{i}"));
        }
        for (qc, label) in [
            (generators::bell(), "bell"),
            (generators::ghz(64), "ghz"),
            (generators::w_state(64), "w"),
            (generators::qft(12, true), "qft"),
            (generators::grover(5, 3, 2), "grover"),
            (generators::ripple_carry_adder(4), "adder"),
            (generators::phase_estimation(5, 0.3), "qpe"),
            (
                generators::random_clifford_seeded(200, 8, 7),
                "clifford-200",
            ),
            (generators::repetition_code(5, 2), "repetition"),
        ] {
            assert_matches_oracle(&qc, label);
        }
    }

    #[test]
    fn ghz_chain_has_cut_width_one() {
        let facts = interaction_facts(&generators::ghz(12));
        assert_eq!(facts.cut_width, 1);
        assert!(facts.connected(0, 11));
    }

    #[test]
    fn qft_all_to_all_has_wide_cuts() {
        let facts = interaction_facts(&generators::qft(12, false));
        assert!(facts.cut_width >= 4, "got {}", facts.cut_width);
        assert!(
            facts.cut_width <= 6,
            "capped by n/2, got {}",
            facts.cut_width
        );
    }

    #[test]
    fn disconnected_halves_are_separate_components() {
        let mut qc = Circuit::new(4);
        qc.cx(0, 1).cx(2, 3);
        let facts = interaction_facts(&qc);
        assert!(facts.connected(0, 1));
        assert!(!facts.connected(1, 2));
    }

    #[test]
    fn unentangled_but_touched_qubit_is_flagged() {
        let mut qc = Circuit::with_clbits(3, 1);
        qc.h(0).cx(0, 1).h(2).measure(0, 0);
        let diags = lint(&qc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::UnentangledQubit);
        assert!(diags[0].message.contains("qubit 2"));
    }

    #[test]
    fn entangled_with_measured_set_is_not_flagged() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).cx(0, 1).measure(0, 0); // q1 entangled with measured q0
        assert!(lint(&qc).is_empty());
    }

    #[test]
    fn no_measurements_means_no_findings() {
        let mut qc = Circuit::new(2);
        qc.h(0).h(1);
        assert!(lint(&qc).is_empty());
    }

    #[test]
    fn untouched_qubits_are_not_flagged_here() {
        // q1 is untouched, not "unentangled": the well-formedness lint
        // reports it as QDT102, this one stays silent.
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).measure(0, 0);
        assert!(lint(&qc).is_empty());
        let diags = crate::wellformed::well_formedness(&qc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::UntouchedQubit);
        assert!(diags[0].message.contains("qubit 1"));
    }
}
