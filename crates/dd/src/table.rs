//! The node table, written once for both diagram arities: vector nodes
//! have two successors, matrix nodes four. A table owns its node arena,
//! the unique table that makes structurally equal nodes one node, and
//! the add cache; normalisation, addition, reachability and the audit
//! are the same code for `K = 2` and `K = 4`. Edges are typed by arity,
//! so a vector id can never be looked up in the matrix arena.
//!
//! Canonicity contract: every node stored in the arena is *normalised*.
//! Its child weights are divided by the weight of the first child whose
//! magnitude is maximal, so that child's weight is exactly `1`.
//! "Maximal" holds within a relative tie tolerance fixed per table (the
//! package uses `0` for vectors, so ties go to index 0, and `1e-12` for
//! matrices). Combined with the tolerance-canonicalising
//! [`ComplexTable`], structurally equal sub-diagrams always hash to the
//! same node, which is what makes sharing (and therefore compactness)
//! work.

use qdt_complex::{Complex, ComplexTable, FastMap};

use crate::DdStats;

pub(crate) type NodeId = u32;
/// Sentinel node id for the terminal.
pub(crate) const TERMINAL: NodeId = u32::MAX;

/// An edge of a decision diagram whose nodes have `K` successors:
/// target node plus complex weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Edge<const K: usize> {
    pub node: NodeId,
    pub weight: Complex,
}

/// An edge of a vector decision diagram.
pub(crate) type VEdge = Edge<2>;
/// An edge of a matrix decision diagram.
pub(crate) type MEdge = Edge<4>;

impl<const K: usize> Edge<K> {
    pub(crate) const ZERO: Self = Edge {
        node: TERMINAL,
        weight: Complex::ZERO,
    };

    pub(crate) fn terminal(weight: Complex) -> Self {
        if weight == Complex::ZERO {
            Self::ZERO
        } else {
            Edge {
                node: TERMINAL,
                weight,
            }
        }
    }

    pub(crate) fn is_zero(&self) -> bool {
        self.weight == Complex::ZERO
    }

    /// Scales the weight, canonicalising and collapsing to the zero
    /// edge when the product vanishes.
    pub(crate) fn scaled(self, ct: &mut ComplexTable, f: Complex) -> Self {
        if self.is_zero() || f == Complex::ZERO {
            return Self::ZERO;
        }
        let w = ct.canonicalize(self.weight * f);
        if w == Complex::ZERO {
            Self::ZERO
        } else {
            Edge {
                node: self.node,
                weight: w,
            }
        }
    }

    fn key(&self) -> (NodeId, (u64, u64)) {
        (self.node, self.weight.to_bits())
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Node<const K: usize> {
    pub level: u16,
    /// Vector nodes: `children[bit]`. Matrix nodes: row-major blocks,
    /// `children[2*row + col]`.
    pub children: [Edge<K>; K],
}

type Key<const K: usize> = (u16, [(NodeId, (u64, u64)); K]);
/// Add-cache key: both operand nodes and the canonical weight ratio.
type AddKey = (NodeId, NodeId, (u64, u64));

fn key_of<const K: usize>(level: u16, children: &[Edge<K>; K]) -> Key<K> {
    (level, children.map(|c| c.key()))
}

/// Arena, unique table and add cache for the nodes of one arity.
#[derive(Debug, Clone)]
pub(crate) struct NodeTable<const K: usize> {
    pub(crate) nodes: Vec<Node<K>>,
    unique: FastMap<Key<K>, NodeId>,
    /// Sums keyed with the incoming weights factored out, so hits are
    /// maximal (see [`NodeTable::add`]).
    add_cache: FastMap<AddKey, Edge<K>>,
    /// Relative slack within which a child's magnitude counts as the
    /// maximum when picking the child normalised to weight `1`.
    tie_tolerance: f64,
    /// Unique-table and add-cache activity: the `unique_*` and
    /// `compute_*` counters of [`DdStats`].
    pub(crate) stats: DdStats,
}

impl<const K: usize> NodeTable<K> {
    pub(crate) fn new(tie_tolerance: f64) -> Self {
        NodeTable {
            nodes: Vec::new(),
            unique: FastMap::default(),
            add_cache: FastMap::default(),
            tie_tolerance,
            stats: DdStats::default(),
        }
    }

    /// Number of nodes ever created (arena size).
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node<K> {
        &self.nodes[id as usize]
    }

    /// Approximate resident bytes: `(arena, unique table, add cache)`.
    pub(crate) fn memory(&self) -> (usize, usize, usize) {
        use std::mem::size_of;
        (
            self.nodes.len() * size_of::<Node<K>>(),
            self.unique.len() * size_of::<(Key<K>, NodeId)>(),
            self.add_cache.len() * size_of::<(AddKey, Edge<K>)>(),
        )
    }

    pub(crate) fn clear_add_cache(&mut self) {
        self.add_cache.clear();
    }

    /// Creates (or finds) the normalised node `level → children` and
    /// returns the edge pointing to it, carrying the extracted factor.
    pub(crate) fn make_node(
        &mut self,
        ct: &mut ComplexTable,
        level: u16,
        mut children: [Edge<K>; K],
    ) -> Edge<K> {
        for c in &mut children {
            if !c.is_zero() {
                c.weight = ct.canonicalize(c.weight);
            }
            if c.is_zero() {
                *c = Edge::ZERO;
            }
        }
        let mags = children.map(|c| c.weight.norm_sqr());
        let max = mags.iter().fold(0.0f64, |m, &x| m.max(x));
        if max == 0.0 {
            return Edge::ZERO;
        }
        // The first child whose magnitude is maximal within the tie
        // tolerance.
        let k = mags
            .iter()
            .position(|&m| m >= max * (1.0 - self.tie_tolerance))
            .expect("the maximum is attained");
        let top = children[k].weight;
        let inv = top.recip();
        for (i, c) in children.iter_mut().enumerate() {
            if i == k {
                c.weight = Complex::ONE;
            } else if !c.is_zero() {
                c.weight = ct.canonicalize(c.weight * inv);
                if c.weight == Complex::ZERO {
                    *c = Edge::ZERO;
                }
            }
        }
        let key = key_of(level, &children);
        self.stats.unique_lookups += 1;
        let id = match self.unique.get(&key) {
            Some(&id) => {
                self.stats.unique_hits += 1;
                id
            }
            None => {
                let id = self.nodes.len() as NodeId;
                self.nodes.push(Node { level, children });
                self.unique.insert(key, id);
                id
            }
        };
        Edge {
            node: id,
            weight: ct.canonicalize(top),
        }
    }

    /// Pointwise sum of two diagrams on the same qubits.
    pub(crate) fn add(&mut self, ct: &mut ComplexTable, a: Edge<K>, b: Edge<K>) -> Edge<K> {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.node == TERMINAL && b.node == TERMINAL {
            return Edge::terminal(ct.canonicalize(a.weight + b.weight));
        }
        debug_assert!(
            a.node != TERMINAL && b.node != TERMINAL,
            "level skew in add"
        );
        // Factor out a.weight: a + b = w_a · (A + (w_b/w_a)·B).
        let alpha = ct.canonicalize(b.weight / a.weight);
        let key = (a.node, b.node, alpha.to_bits());
        self.stats.compute_lookups += 1;
        if let Some(&r) = self.add_cache.get(&key) {
            self.stats.compute_hits += 1;
            return r.scaled(ct, a.weight);
        }
        let an = self.node(a.node).clone();
        let bn = self.node(b.node).clone();
        debug_assert_eq!(an.level, bn.level, "add level mismatch");
        let mut children = [Edge::ZERO; K];
        for (i, child) in children.iter_mut().enumerate() {
            let bscaled = bn.children[i].scaled(ct, alpha);
            *child = self.add(ct, an.children[i], bscaled);
        }
        let r = self.make_node(ct, an.level, children);
        self.add_cache.insert(key, r);
        r.scaled(ct, a.weight)
    }

    /// Calls `visit` once per distinct node reachable from `root`
    /// (terminal excluded), depth first with child 0 pushed first.
    pub(crate) fn for_each_reachable(&self, root: NodeId, mut visit: impl FnMut(NodeId)) {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if id == TERMINAL || !seen.insert(id) {
                continue;
            }
            visit(id);
            stack.extend(self.node(id).children.iter().map(|c| c.node));
        }
    }

    /// The number of distinct nodes reachable from `root` (the paper's
    /// DD size metric; terminal excluded).
    pub(crate) fn count_reachable(&self, root: NodeId) -> usize {
        let mut count = 0;
        self.for_each_reachable(root, |_| count += 1);
        count
    }

    /// Appends this table's invariant violations (see
    /// [`DdPackage::audit`](crate::DdPackage::audit)), naming the table
    /// `kind`.
    #[cfg(feature = "audit")]
    pub(crate) fn audit(&self, kind: &str, violations: &mut Vec<String>) {
        // Magnitudes may exceed 1 by numerical round-off only.
        const MAG_SLACK: f64 = 1e-9;
        let len = self.nodes.len();
        if self.unique.len() != len {
            violations.push(format!(
                "{kind} unique table has {} entries for {len} arena nodes",
                self.unique.len()
            ));
        }
        for (key, &id) in &self.unique {
            match self.nodes.get(id as usize) {
                None => violations.push(format!(
                    "{kind} unique-table entry {id} out of arena range {len}"
                )),
                Some(node) if key_of(node.level, &node.children) != *key => {
                    violations.push(format!("{kind} unique-table key for node {id} is stale"));
                }
                Some(_) => {}
            }
        }
        for (id, node) in self.nodes.iter().enumerate() {
            let level = node.level;
            let mut has_unit = false;
            let mut max_sqr = 0.0f64;
            for c in &node.children {
                if c.weight == Complex::ONE {
                    has_unit = true;
                }
                max_sqr = max_sqr.max(c.weight.norm_sqr());
                if c.weight == Complex::ZERO && c.node != TERMINAL {
                    violations.push(format!(
                        "{kind} node {id}: zero-weight child not collapsed to the zero edge"
                    ));
                }
                if c.node == TERMINAL {
                    continue;
                }
                match self.nodes.get(c.node as usize) {
                    None => violations.push(format!(
                        "{kind} node {id}: child id {} out of range",
                        c.node
                    )),
                    Some(child) if child.level >= level => violations.push(format!(
                        "{kind} node {id} (level {level}): child level {} does not \
                         decrease — terminal unreachable",
                        child.level
                    )),
                    Some(_) => {}
                }
            }
            if !has_unit {
                violations.push(format!(
                    "{kind} node {id}: no child has weight exactly 1 (normalisation broken)"
                ));
            }
            if max_sqr > 1.0 + MAG_SLACK {
                violations.push(format!(
                    "{kind} node {id}: child magnitude² {max_sqr} exceeds 1 \
                     (top weight not extracted)"
                ));
            }
        }
    }
}
