//! The def-use dependency DAG over a circuit's instruction stream.
//!
//! Every instruction is a node; edges record *data* dependence:
//!
//! * **Qubit chains** — instruction `j` depends on instruction `i`
//!   through qubit `q` when `i` is the latest earlier instruction
//!   touching `q`. Barriers carry no data and are skipped (they pin
//!   *ordering*, which the cancellation scan handles separately).
//! * **Classical-bit chains** — a measurement writing clbit `c` is the
//!   definition consumed by every later instruction conditioned on `c`
//!   (up to the next measurement redefining `c`).
//!
//! The stream index order is already a topological order, so dataflow
//! solvers over this DAG (see [`crate::dataflow`]) terminate without
//! cycle detection. Construction is total: out-of-range qubit or clbit
//! indices (reachable via `Circuit::push_unchecked`) contribute no
//! edges — the well-formedness pass reports them instead.

use qdt_circuit::{Circuit, OpKind};

/// Why one instruction depends on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// The dependence flows through qubit `q`.
    Qubit(usize),
    /// The dependence flows through classical bit `c` (a measurement
    /// defines it, a conditioned instruction reads it).
    Clbit(usize),
}

/// One dependence edge `from → to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The defining (earlier) instruction.
    pub from: usize,
    /// The using (later) instruction.
    pub to: usize,
    /// The wire the dependence flows through.
    pub kind: EdgeKind,
}

/// The def-use dependency DAG of one circuit.
#[derive(Debug, Clone)]
pub struct CircuitDag {
    num_nodes: usize,
    preds: Vec<Vec<Edge>>,
    succs: Vec<Vec<Edge>>,
    num_edges: usize,
}

impl CircuitDag {
    /// Builds the DAG for `circuit` in one forward scan.
    #[must_use]
    pub fn build(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let nq = circuit.num_qubits();
        let nc = circuit.num_clbits();
        let mut dag = CircuitDag {
            num_nodes: n,
            preds: vec![Vec::new(); n],
            succs: vec![Vec::new(); n],
            num_edges: 0,
        };
        // Latest instruction touching each qubit / defining each clbit.
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; nq];
        let mut last_def_clbit: Vec<Option<usize>> = vec![None; nc];
        for (i, inst) in circuit.iter().enumerate() {
            if matches!(inst.kind, OpKind::Barrier(_)) {
                continue;
            }
            // Condition edge: read of the clbit's latest definition.
            if let Some(cond) = &inst.cond {
                if cond.clbit < nc {
                    if let Some(def) = last_def_clbit[cond.clbit] {
                        dag.add_edge(Edge {
                            from: def,
                            to: i,
                            kind: EdgeKind::Clbit(cond.clbit),
                        });
                    }
                }
            }
            for q in inst.qubits() {
                if q >= nq {
                    continue;
                }
                if let Some(def) = last_on_qubit[q] {
                    dag.add_edge(Edge {
                        from: def,
                        to: i,
                        kind: EdgeKind::Qubit(q),
                    });
                }
                last_on_qubit[q] = Some(i);
            }
            if let OpKind::Measure { clbit, .. } = inst.kind {
                if clbit < nc {
                    last_def_clbit[clbit] = Some(i);
                }
            }
        }
        dag
    }

    fn add_edge(&mut self, edge: Edge) {
        self.succs[edge.from].push(edge);
        self.preds[edge.to].push(edge);
        self.num_edges += 1;
    }

    /// Number of nodes (= instructions, barriers included as isolated
    /// nodes).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of dependence edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Incoming edges of node `i` (its definitions).
    #[must_use]
    pub fn preds(&self, i: usize) -> &[Edge] {
        &self.preds[i]
    }

    /// Outgoing edges of node `i` (its uses).
    #[must_use]
    pub fn succs(&self, i: usize) -> &[Edge] {
        &self.succs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_chains_link_consecutive_touches() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).x(1);
        let dag = CircuitDag::build(&qc);
        assert_eq!(dag.num_nodes(), 3);
        // h(0) → cx through q0; cx → x through q1.
        assert_eq!(
            dag.succs(0),
            &[Edge {
                from: 0,
                to: 1,
                kind: EdgeKind::Qubit(0)
            }]
        );
        assert_eq!(
            dag.preds(2),
            &[Edge {
                from: 1,
                to: 2,
                kind: EdgeKind::Qubit(1)
            }]
        );
        assert_eq!(dag.num_edges(), 2);
    }

    #[test]
    fn condition_edge_links_measurement_to_reader() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).measure(0, 0).x(1).c_if(0, true);
        let dag = CircuitDag::build(&qc);
        assert!(dag
            .preds(2)
            .iter()
            .any(|e| e.from == 1 && e.kind == EdgeKind::Clbit(0)));
    }

    #[test]
    fn clbit_redefinition_shadows_earlier_measurement() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.measure(0, 0).measure(1, 0).z(0).c_if(0, true);
        let dag = CircuitDag::build(&qc);
        let cond_edges: Vec<_> = dag
            .preds(2)
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Clbit(_)))
            .collect();
        assert_eq!(cond_edges.len(), 1);
        assert_eq!(cond_edges[0].from, 1, "reads the latest definition");
    }

    #[test]
    fn barriers_are_isolated_nodes() {
        let mut qc = Circuit::new(2);
        qc.h(0).barrier().h(0);
        let dag = CircuitDag::build(&qc);
        assert!(dag.preds(1).is_empty() && dag.succs(1).is_empty());
        // The qubit chain flows straight through the barrier.
        assert_eq!(dag.succs(0)[0].to, 2);
    }

    #[test]
    fn out_of_range_indices_contribute_no_edges() {
        use qdt_circuit::{Gate, Instruction};
        let mut qc = Circuit::new(1);
        qc.push_unchecked(Instruction::new(OpKind::Unitary {
            gate: Gate::X,
            target: 9,
            controls: vec![],
        }));
        qc.push_unchecked(Instruction::new(OpKind::Unitary {
            gate: Gate::X,
            target: 9,
            controls: vec![],
        }));
        let dag = CircuitDag::build(&qc);
        assert_eq!(dag.num_edges(), 0);
    }
}
