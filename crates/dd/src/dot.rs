//! Graphviz (DOT) export of decision diagrams.
//!
//! Stands in for the web-based visualiser the paper references (\[30\]):
//! `dot -Tsvg` on the output reproduces drawings in the style of Fig. 1b,
//! with edge weights annotated and weight-1 edges left unlabelled.

use std::fmt::Write as _;

use crate::package::DdPackage;
use crate::table::{Edge, NodeId, NodeTable, TERMINAL};
use crate::{MatrixDd, VectorDd};

impl DdPackage {
    /// Renders a vector DD as a Graphviz digraph.
    pub fn vector_to_dot(&self, v: &VectorDd) -> String {
        to_dot(
            &self.vectors,
            "vectordd",
            'v',
            v.root,
            |out, name, i, child| {
                let style = if i == 0 { "dashed" } else { "solid" };
                match child {
                    // 0-stub per the paper's visual convention.
                    None => {
                        writeln!(out, "  {name}_z{i} [shape=none, label=\"0\"];").expect("write");
                        writeln!(out, "  {name} -> {name}_z{i} [style={style}];").expect("write");
                    }
                    Some((cname, w)) if w.is_empty() => {
                        writeln!(out, "  {name} -> {cname} [style={style}];").expect("write");
                    }
                    Some((cname, w)) => {
                        writeln!(out, "  {name} -> {cname} [style={style}, label=\"{w}\"];")
                            .expect("write");
                    }
                }
            },
        )
    }

    /// Renders a matrix DD as a Graphviz digraph (children labelled by
    /// their row/column block).
    pub fn matrix_to_dot(&self, m: &MatrixDd) -> String {
        to_dot(
            &self.matrices,
            "matrixdd",
            'm',
            m.root,
            |out, name, i, child| {
                // Zero blocks are omitted to keep matrix plots legible.
                let Some((cname, w)) = child else { return };
                let block = format!("{}{}", i / 2, i % 2);
                let label = if w.is_empty() {
                    block
                } else {
                    format!("{block}: {w}")
                };
                writeln!(out, "  {name} -> {cname} [label=\"{label}\"];").expect("write");
            },
        )
    }
}

/// The Graphviz digraph `graph` of the diagram under `root`: nodes named
/// `prefix` + id, each labelled by its qubit. `child` writes the lines
/// of child edge `i` of node `name`, given the child's name and weight
/// label, or `None` for a zero edge.
fn to_dot<const K: usize>(
    table: &NodeTable<K>,
    graph: &str,
    prefix: char,
    root: Edge<K>,
    child: impl Fn(&mut String, &str, usize, Option<(String, String)>),
) -> String {
    let name = |id: NodeId| {
        if id == TERMINAL {
            "T".to_string()
        } else {
            format!("{prefix}{id}")
        }
    };
    let mut out = format!("digraph {graph} {{\n  rankdir=TB;\n  node [shape=circle];\n");
    writeln!(out, "  T [shape=box, label=\"1\"];").expect("write to string");
    writeln!(
        out,
        "  root [shape=point]; root -> {} [label=\"{}\"];",
        name(root.node),
        fmt_weight(root.weight)
    )
    .expect("write to string");
    table.for_each_reachable(root.node, |id| {
        let node = table.node(id);
        let node_name = name(id);
        writeln!(out, "  {node_name} [label=\"q{}\"];", node.level).expect("write to string");
        for (i, c) in node.children.iter().enumerate() {
            let target = (!c.is_zero()).then(|| (name(c.node), fmt_weight(c.weight)));
            child(&mut out, &node_name, i, target);
        }
    });
    out.push_str("}\n");
    out
}

/// Formats an edge weight, omitting exact ones per the paper's convention.
fn fmt_weight(w: qdt_complex::Complex) -> String {
    if w.approx_eq(qdt_complex::Complex::ONE, 1e-12) {
        String::new()
    } else if w.im == 0.0 {
        format!("{:.4}", w.re)
    } else {
        format!("{:.4}{:+.4}i", w.re, w.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::generators;

    #[test]
    fn bell_dot_contains_levels_and_weight() {
        let mut p = DdPackage::new();
        let v = p.run_circuit(&generators::bell()).unwrap();
        let dot = p.vector_to_dot(&v);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("q1"));
        assert!(dot.contains("q0"));
        assert!(dot.contains("0.7071"), "root weight 1/√2 must be labelled");
        assert!(dot.contains("-> T") || dot.contains("->T"));
    }

    #[test]
    fn zero_stubs_rendered() {
        let mut p = DdPackage::new();
        let v = p.basis_state(2, 0b01);
        let dot = p.vector_to_dot(&v);
        assert!(dot.contains("label=\"0\""), "0-stub expected");
    }

    #[test]
    fn matrix_dot_for_cnot() {
        let mut p = DdPackage::new();
        let g = p.gate_dd(&qdt_circuit::Gate::X.matrix(), 2, 0, &[1]);
        let dot = p.matrix_to_dot(&g);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("q1"));
    }
}
