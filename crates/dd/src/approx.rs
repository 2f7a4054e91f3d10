//! Approximate decision-diagram simulation (the paper's reference \[12\],
//! Hillmich/Kueng/Markov/Wille, DATE 2020: "As accurate as needed, as
//! efficient as possible").
//!
//! Vector DDs of real circuits often carry many paths with tiny
//! probability mass. Pruning them — replacing low-contribution edges by
//! zero stubs and renormalising — shrinks the diagram while losing only a
//! bounded amount of fidelity. This module implements budgeted pruning:
//! the caller specifies the maximum admissible fidelity loss, and the
//! smallest-contribution edges are removed greedily until the budget
//! would be exceeded.

use std::collections::HashMap;

use qdt_complex::Complex;

use crate::package::DdPackage;
use crate::table::{NodeId, VEdge, TERMINAL};
use crate::VectorDd;

/// The result of an approximation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxResult {
    /// Probability mass removed (≤ the requested budget).
    pub lost_mass: f64,
    /// Edges replaced by zero stubs.
    pub pruned_edges: usize,
    /// Diagram size before pruning.
    pub nodes_before: usize,
    /// Diagram size after pruning.
    pub nodes_after: usize,
}

impl DdPackage {
    /// Prunes the lowest-contribution edges of `v` such that the total
    /// removed probability mass stays at or below `budget`, then
    /// renormalises. The post-state fidelity with the pre-state is at
    /// least `1 − budget`.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not in `[0, 1)` or the state has zero norm.
    pub fn approximate(&mut self, v: &mut VectorDd, budget: f64) -> ApproxResult {
        assert!((0.0..1.0).contains(&budget), "budget must be in [0, 1)");
        let nodes_before = self.vector_node_count(v);
        let total = self.norm_sqr(v);
        assert!(total > 1e-300, "cannot approximate the zero vector");

        // Downward pass: probability mass arriving at each node.
        let order = self.topological_order(v.root.node);
        let mut mass: HashMap<NodeId, f64> = HashMap::new();
        if v.root.node != TERMINAL {
            mass.insert(
                v.root.node,
                v.root.weight.norm_sqr() * self.node_norm_sqr(v.root.node) / total,
            );
        }
        // Contribution of each (node, child index) edge.
        let mut contributions: Vec<(f64, NodeId, usize)> = Vec::new();
        for &id in &order {
            let node_mass = *mass.get(&id).unwrap_or(&0.0);
            let node_norm = self.node_norm_sqr(id);
            if node_norm == 0.0 {
                continue;
            }
            let node = self.vectors.node(id).clone();
            for (i, c) in node.children.iter().enumerate() {
                if c.is_zero() {
                    continue;
                }
                let child_share =
                    node_mass * c.weight.norm_sqr() * self.node_norm_sqr(c.node) / node_norm;
                contributions.push((child_share, id, i));
                if c.node != TERMINAL {
                    *mass.entry(c.node).or_insert(0.0) += child_share;
                }
            }
        }

        // Greedy: prune cheapest edges while the budget allows, but never
        // prune every edge of the root's support.
        contributions.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite masses"));
        let mut lost = 0.0;
        let mut prune: HashMap<(NodeId, usize), ()> = HashMap::new();
        for &(share, id, i) in &contributions {
            if share <= 0.0 {
                continue;
            }
            if lost + share > budget {
                break;
            }
            lost += share;
            prune.insert((id, i), ());
        }
        if prune.is_empty() {
            return ApproxResult {
                lost_mass: 0.0,
                pruned_edges: 0,
                nodes_before,
                nodes_after: nodes_before,
            };
        }

        // Rebuild with the pruned edges as zero stubs.
        let mut memo: HashMap<NodeId, VEdge> = HashMap::new();
        let rebuilt = self.rebuild_pruned(v.root.node, &prune, &mut memo);
        let mut out = VectorDd {
            root: rebuilt.scaled(&mut self.ctable, v.root.weight),
            num_qubits: v.num_qubits,
        };
        let pruned_edges = prune.len();
        if out.root.is_zero() {
            // Degenerate: the budget allowed pruning everything. Refuse.
            return ApproxResult {
                lost_mass: 0.0,
                pruned_edges: 0,
                nodes_before,
                nodes_after: nodes_before,
            };
        }
        self.normalize(&mut out);
        let nodes_after = self.vector_node_count(&out);
        *v = out;
        ApproxResult {
            lost_mass: lost,
            pruned_edges,
            nodes_before,
            nodes_after,
        }
    }

    fn topological_order(&self, root: NodeId) -> Vec<NodeId> {
        // Nodes sorted by descending level — parents precede children
        // because vector DDs never skip levels.
        let mut out = Vec::new();
        self.vectors.for_each_reachable(root, |id| out.push(id));
        out.sort_by_key(|&id| std::cmp::Reverse(self.vectors.node(id).level));
        out
    }

    fn rebuild_pruned(
        &mut self,
        id: NodeId,
        prune: &HashMap<(NodeId, usize), ()>,
        memo: &mut HashMap<NodeId, VEdge>,
    ) -> VEdge {
        if id == TERMINAL {
            return VEdge::terminal(Complex::ONE);
        }
        if let Some(&e) = memo.get(&id) {
            return e;
        }
        let node = self.vectors.node(id).clone();
        let mut children = [VEdge::ZERO; 2];
        for (i, c) in node.children.iter().enumerate() {
            if c.is_zero() || prune.contains_key(&(id, i)) {
                continue;
            }
            let sub = self.rebuild_pruned(c.node, prune, memo);
            children[i] = sub.scaled(&mut self.ctable, c.weight);
        }
        let e = self
            .vectors
            .make_node(&mut self.ctable, node.level, children);
        memo.insert(id, e);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::{generators, Circuit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A state with one dominant branch and many tiny ones: |0…0⟩ plus
    /// small rotations sprinkled everywhere.
    fn skewed_state(n: usize, angle: f64) -> Circuit {
        let mut qc = Circuit::new(n);
        for q in 0..n {
            qc.ry(angle, q);
        }
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc
    }

    #[test]
    fn zero_budget_changes_nothing() {
        let mut dd = DdPackage::new();
        let mut v = dd.run_circuit(&generators::qft(5, true)).unwrap();
        let before = dd.to_amplitudes(&v);
        let r = dd.approximate(&mut v, 0.0);
        assert_eq!(r.pruned_edges, 0);
        let after = dd.to_amplitudes(&v);
        for (a, b) in before.iter().zip(&after) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn fidelity_respects_budget() {
        let mut dd = DdPackage::new();
        let qc = skewed_state(8, 0.2);
        let exact = dd.run_circuit(&qc).unwrap();
        for budget in [0.001, 0.01, 0.05] {
            let mut v = dd.run_circuit(&qc).unwrap();
            let r = dd.approximate(&mut v, budget);
            assert!(r.lost_mass <= budget + 1e-12);
            let fid = dd.fidelity(&exact, &v);
            assert!(
                fid >= 1.0 - budget - 1e-9,
                "budget {budget}: fidelity {fid} below bound"
            );
            assert!((dd.norm_sqr(&v) - 1.0).abs() < 1e-9, "not renormalised");
        }
    }

    #[test]
    fn pruning_sparsifies_skewed_states() {
        let mut dd = DdPackage::new();
        let qc = skewed_state(10, 0.15);
        let mut v = dd.run_circuit(&qc).unwrap();
        let nonzero = |dd: &DdPackage, v: &VectorDd| {
            dd.to_amplitudes(v)
                .iter()
                .filter(|a| a.abs() > 1e-12)
                .count()
        };
        let before = nonzero(&dd, &v);
        let r = dd.approximate(&mut v, 0.02);
        assert!(r.pruned_edges > 0, "nothing pruned on a skewed state");
        let after = nonzero(&dd, &v);
        assert!(
            after < before,
            "pruning must zero paths: {before} -> {after}"
        );
        assert!(r.nodes_after <= r.nodes_before);
    }

    #[test]
    fn balanced_states_resist_small_budgets() {
        // GHZ has two equal branches of mass 1/2 — a 1% budget must not
        // prune anything.
        let mut dd = DdPackage::new();
        let mut v = dd.run_circuit(&generators::ghz(6)).unwrap();
        let r = dd.approximate(&mut v, 0.01);
        assert_eq!(r.pruned_edges, 0);
        assert!((dd.amplitude(&v, 0).abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn large_budget_collapses_to_dominant_branch() {
        let mut dd = DdPackage::new();
        let qc = skewed_state(6, 0.1);
        let mut v = dd.run_circuit(&qc).unwrap();
        dd.approximate(&mut v, 0.5);
        // The dominant |0…0⟩ amplitude must have grown by renormalising.
        assert!(dd.amplitude(&v, 0).abs() > 0.9);
    }

    #[test]
    fn random_circuit_budget_sweep_monotone_nodes() {
        let mut rng = StdRng::seed_from_u64(7);
        let qc = generators::random_circuit(7, 3, &mut rng);
        let mut dd = DdPackage::new();
        let mut last_nodes = usize::MAX;
        for budget in [0.0005, 0.005, 0.05, 0.3] {
            let mut v = dd.run_circuit(&qc).unwrap();
            let r = dd.approximate(&mut v, budget);
            assert!(
                r.nodes_after <= last_nodes,
                "node count should fall with budget"
            );
            last_nodes = r.nodes_after;
        }
    }

    #[test]
    #[should_panic(expected = "budget must be in")]
    fn invalid_budget_rejected() {
        let mut dd = DdPackage::new();
        let mut v = dd.zero_state(2);
        dd.approximate(&mut v, 1.5);
    }
}
