//! The decision-diagram package: one node table per arity (`table.rs`),
//! the complex table both share, and the package-level caches of
//! products, gates, identities and norms.

use qdt_complex::{Complex, ComplexTable, FastMap};

use crate::table::{MEdge, NodeId, NodeTable, VEdge, TERMINAL};

/// Normalisation tie tolerance of vector nodes: the exact maximum child
/// is extracted, ties going to index 0.
const VECTOR_TIE_TOLERANCE: f64 = 0.0;
/// Normalisation tie tolerance of matrix nodes: the first child within
/// `1e-12` (relative) of the maximum magnitude is extracted.
const MATRIX_TIE_TOLERANCE: f64 = 1e-12;

/// Memo key of a constructed gate diagram: the four 2×2 entry bit
/// patterns, the register width, the target and the control set as a
/// bit mask.
pub(crate) type GateKey = ([(u64, u64); 4], usize, usize, u128);

/// A handle to a vector decision diagram rooted in a [`DdPackage`].
///
/// Handles are only meaningful with the package that created them;
/// combining handles across packages is a logic error (caught only by
/// debug assertions on node bounds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorDd {
    pub(crate) root: VEdge,
    pub(crate) num_qubits: usize,
}

impl VectorDd {
    /// The number of qubits of the represented state.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }
}

/// A handle to a matrix decision diagram rooted in a [`DdPackage`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixDd {
    pub(crate) root: MEdge,
    pub(crate) num_qubits: usize,
}

impl MatrixDd {
    /// The number of qubits the represented operator acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }
}

/// Running totals of table and cache activity inside a [`DdPackage`] —
/// the internal statistics the paper's trade-off discussion (and its
/// companion tool papers) lean on: how often structural sharing pays.
///
/// All counters are cumulative since package creation. Maintaining them
/// is a handful of integer increments on paths that already do hash-map
/// lookups, so they are always on; telemetry layers read them through
/// [`DdPackage::stats`] and difference snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DdStats {
    /// Unique-table probes (vector + matrix `make_*node` calls that
    /// reached the table).
    pub unique_lookups: u64,
    /// Unique-table probes answered by an existing node (sharing).
    pub unique_hits: u64,
    /// Compute-cache probes (add, matrix–vector, matrix–matrix).
    pub compute_lookups: u64,
    /// Compute-cache probes answered from the cache.
    pub compute_hits: u64,
    /// Complex-table canonicalisation calls.
    pub ctable_lookups: u64,
    /// Canonicalisations resolved to an existing representative.
    pub ctable_hits: u64,
    /// Distinct canonical complex values stored.
    pub ctable_entries: u64,
}

/// Approximate resident bytes of a [`DdPackage`], by subsystem (see
/// [`DdPackage::memory_breakdown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DdMemory {
    /// Node arenas (vector + matrix nodes ever created).
    pub arena: usize,
    /// Unique tables (canonical node keys → arena ids).
    pub unique_tables: usize,
    /// Canonical complex-number table.
    pub complex_table: usize,
    /// Compute caches (add, mat–vec, mat–mat, gate memo, norms).
    pub compute_tables: usize,
}

/// The decision-diagram package: owns all nodes and caches.
///
/// All diagram construction and manipulation goes through `&mut self`
/// methods so that node sharing is global within the package. Create one
/// package per logical task; diagrams from different packages must not be
/// mixed.
#[derive(Debug, Clone)]
pub struct DdPackage {
    /// Vector nodes: arena, unique table, add cache.
    pub(crate) vectors: NodeTable<2>,
    /// Matrix nodes: arena, unique table, add cache.
    pub(crate) matrices: NodeTable<4>,
    pub(crate) ctable: ComplexTable,
    // Product caches. Keys factor the incoming edge weights out so cache
    // hits are maximal (see each op).
    mv_cache: FastMap<(NodeId, NodeId), VEdge>,
    mm_cache: FastMap<(NodeId, NodeId), MEdge>,
    /// Memoised [`gate_dd`](DdPackage::gate_dd) roots keyed by gate
    /// entries, register width, target and controls. Dynamic-circuit
    /// suffixes re-apply the same few gates once per shot; the memo
    /// turns each rebuild into a single lookup. Entries stay valid for
    /// the package's whole lifetime because arena nodes are never
    /// freed.
    pub(crate) gate_cache: FastMap<GateKey, MEdge>,
    /// Cached identity diagrams: `ident[l]` spans qubits `0..=l`.
    ident: Vec<MEdge>,
    /// Cached squared norms of vector nodes.
    nsq_cache: FastMap<NodeId, f64>,
    /// Product-cache activity (the node tables count their own unique
    /// and add lookups; see [`DdPackage::stats`]).
    stats: DdStats,
}

impl DdPackage {
    /// Creates an empty package with the default numerical tolerance.
    pub fn new() -> Self {
        Self::with_tolerance(qdt_complex::TOLERANCE)
    }

    /// Creates an empty package whose complex table canonicalises edge
    /// weights within `tol`.
    ///
    /// The tolerance is what makes node sharing effective: with a
    /// too-small tolerance, floating-point round-off makes numerically
    /// equal weights bitwise distinct and the diagram blows up (see the
    /// ablation experiment A1 in EXPERIMENTS.md).
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not finite and positive.
    pub fn with_tolerance(tol: f64) -> Self {
        DdPackage {
            vectors: NodeTable::new(VECTOR_TIE_TOLERANCE),
            matrices: NodeTable::new(MATRIX_TIE_TOLERANCE),
            ctable: ComplexTable::with_tolerance(tol),
            mv_cache: FastMap::default(),
            mm_cache: FastMap::default(),
            gate_cache: FastMap::default(),
            ident: Vec::new(),
            nsq_cache: FastMap::default(),
            stats: DdStats::default(),
        }
    }

    /// Total number of vector nodes ever created (arena size).
    pub fn vector_arena_size(&self) -> usize {
        self.vectors.len()
    }

    /// Total number of matrix nodes ever created (arena size).
    pub fn matrix_arena_size(&self) -> usize {
        self.matrices.len()
    }

    /// Approximate resident bytes of the package's four memory
    /// subsystems: `(arena, unique_tables, complex_table,
    /// compute_tables)` — entry counts times entry sizes, ignoring
    /// hash-map bucket overhead. Pure arithmetic on already-tracked
    /// lengths, cheap enough for the run-loop to poll per gate.
    pub fn memory_breakdown(&self) -> DdMemory {
        use std::mem::size_of;
        let (v_arena, v_unique, v_add) = self.vectors.memory();
        let (m_arena, m_unique, m_add) = self.matrices.memory();
        let compute_tables = v_add
            + m_add
            + self.mv_cache.len() * size_of::<((NodeId, NodeId), VEdge)>()
            + self.mm_cache.len() * size_of::<((NodeId, NodeId), MEdge)>()
            + self.gate_cache.len() * size_of::<(GateKey, MEdge)>()
            + self.nsq_cache.len() * size_of::<(NodeId, f64)>();
        DdMemory {
            arena: v_arena + m_arena,
            unique_tables: v_unique + m_unique,
            complex_table: self.ctable.len() * size_of::<Complex>(),
            compute_tables,
        }
    }

    /// Total approximate resident bytes (see
    /// [`memory_breakdown`](DdPackage::memory_breakdown)).
    pub fn memory_bytes(&self) -> usize {
        let m = self.memory_breakdown();
        m.arena + m.unique_tables + m.complex_table + m.compute_tables
    }

    /// Cumulative table/cache activity since package creation.
    pub fn stats(&self) -> DdStats {
        let parts = [self.stats, self.vectors.stats, self.matrices.stats];
        let sum = |field: fn(&DdStats) -> u64| parts.iter().map(field).sum();
        DdStats {
            unique_lookups: sum(|s| s.unique_lookups),
            unique_hits: sum(|s| s.unique_hits),
            compute_lookups: sum(|s| s.compute_lookups),
            compute_hits: sum(|s| s.compute_hits),
            ctable_lookups: self.ctable.lookups(),
            ctable_hits: self.ctable.hits(),
            ctable_entries: self.ctable.len() as u64,
        }
    }

    /// Drops all memoisation caches (unique tables and nodes are kept).
    ///
    /// Useful between independent runs to bound memory; correctness never
    /// requires calling this.
    pub fn clear_caches(&mut self) {
        self.vectors.clear_add_cache();
        self.matrices.clear_add_cache();
        self.mv_cache.clear();
        self.mm_cache.clear();
        self.nsq_cache.clear();
    }

    pub(crate) fn canon(&mut self, c: Complex) -> Complex {
        self.ctable.canonicalize(c)
    }

    /// Matrix–vector product of diagram edges.
    pub(crate) fn mat_vec(&mut self, m: MEdge, v: VEdge) -> VEdge {
        if m.is_zero() || v.is_zero() {
            return VEdge::ZERO;
        }
        if m.node == TERMINAL {
            debug_assert_eq!(v.node, TERMINAL, "level skew in mat_vec");
            return VEdge::terminal(self.canon(m.weight * v.weight));
        }
        debug_assert_ne!(v.node, TERMINAL, "level skew in mat_vec");
        let f = self.canon(m.weight * v.weight);
        let key = (m.node, v.node);
        self.stats.compute_lookups += 1;
        if let Some(&r) = self.mv_cache.get(&key) {
            self.stats.compute_hits += 1;
            return r.scaled(&mut self.ctable, f);
        }
        let mn = self.matrices.node(m.node).clone();
        let vn = self.vectors.node(v.node).clone();
        debug_assert_eq!(mn.level, vn.level, "mat_vec level mismatch");
        let mut children = [VEdge::ZERO; 2];
        for (i, child) in children.iter_mut().enumerate() {
            let a = self.mat_vec(mn.children[2 * i], vn.children[0]);
            let b = self.mat_vec(mn.children[2 * i + 1], vn.children[1]);
            *child = self.vectors.add(&mut self.ctable, a, b);
        }
        let r = self.vectors.make_node(&mut self.ctable, mn.level, children);
        self.mv_cache.insert(key, r);
        r.scaled(&mut self.ctable, f)
    }

    /// Matrix–matrix product of diagram edges (`a · b`).
    pub(crate) fn mat_mat(&mut self, a: MEdge, b: MEdge) -> MEdge {
        if a.is_zero() || b.is_zero() {
            return MEdge::ZERO;
        }
        if a.node == TERMINAL {
            debug_assert_eq!(b.node, TERMINAL, "level skew in mat_mat");
            return MEdge::terminal(self.canon(a.weight * b.weight));
        }
        debug_assert_ne!(b.node, TERMINAL, "level skew in mat_mat");
        // Gate diagrams are the identity below their target, so this
        // skips most of a gate product's recursion and cache probes.
        if self.is_identity_node(a.node) {
            return b.scaled(&mut self.ctable, a.weight);
        }
        if self.is_identity_node(b.node) {
            return a.scaled(&mut self.ctable, b.weight);
        }
        let f = self.canon(a.weight * b.weight);
        let key = (a.node, b.node);
        self.stats.compute_lookups += 1;
        if let Some(&r) = self.mm_cache.get(&key) {
            self.stats.compute_hits += 1;
            return r.scaled(&mut self.ctable, f);
        }
        let an = self.matrices.node(a.node).clone();
        let bn = self.matrices.node(b.node).clone();
        debug_assert_eq!(an.level, bn.level, "mat_mat level mismatch");
        let mut children = [MEdge::ZERO; 4];
        for i in 0..2 {
            for k in 0..2 {
                let p = self.mat_mat(an.children[2 * i], bn.children[k]);
                let q = self.mat_mat(an.children[2 * i + 1], bn.children[2 + k]);
                children[2 * i + k] = self.matrices.add(&mut self.ctable, p, q);
            }
        }
        let r = self
            .matrices
            .make_node(&mut self.ctable, an.level, children);
        self.mm_cache.insert(key, r);
        r.scaled(&mut self.ctable, f)
    }

    /// The identity diagram on qubits `0..=level`.
    pub(crate) fn identity_edge(&mut self, level: isize) -> MEdge {
        if level < 0 {
            return MEdge::terminal(Complex::ONE);
        }
        let level = level as usize;
        while self.ident.len() <= level {
            let l = self.ident.len();
            let below = if l == 0 {
                MEdge::terminal(Complex::ONE)
            } else {
                self.ident[l - 1]
            };
            let e = self.block_diagonal(l, below, below);
            self.ident.push(e);
        }
        self.ident[level]
    }

    /// The matrix node at `level` with diagonal blocks `upper` (row and
    /// column bit 0) and `lower` and zero off-diagonal blocks.
    pub(crate) fn block_diagonal(&mut self, level: usize, upper: MEdge, lower: MEdge) -> MEdge {
        let children = [upper, MEdge::ZERO, MEdge::ZERO, lower];
        self.matrices
            .make_node(&mut self.ctable, level as u16, children)
    }

    /// Whether the (non-terminal) node is the cached identity of its level.
    fn is_identity_node(&self, id: NodeId) -> bool {
        let level = usize::from(self.matrices.node(id).level);
        self.ident.get(level).is_some_and(|e| e.node == id)
    }

    /// The identity operator as a [`MatrixDd`] on `num_qubits` qubits.
    pub fn identity(&mut self, num_qubits: usize) -> MatrixDd {
        let root = self.identity_edge(num_qubits as isize - 1);
        MatrixDd { root, num_qubits }
    }

    /// Squared norm of a vector node's (normalised) subtree.
    pub(crate) fn node_norm_sqr(&mut self, id: NodeId) -> f64 {
        if id == TERMINAL {
            return 1.0;
        }
        if let Some(&n) = self.nsq_cache.get(&id) {
            return n;
        }
        let node = self.vectors.node(id).clone();
        let mut acc = 0.0;
        for c in node.children {
            if !c.is_zero() {
                acc += c.weight.norm_sqr() * self.node_norm_sqr(c.node);
            }
        }
        self.nsq_cache.insert(id, acc);
        acc
    }

    // --- invariant auditing ------------------------------------------------

    /// Checks the package's structural invariants, returning every
    /// violation found (empty on success):
    ///
    /// * **Unique-table consistency** — each table entry points at an
    ///   in-range arena node whose recomputed key matches, and every
    ///   arena node is registered (no orphans).
    /// * **Normalisation** — every stored node has exactly one child of
    ///   weight `1`, no child of larger magnitude, and zero children
    ///   collapsed to the canonical zero edge.
    /// * **Terminal reachability** — child levels strictly decrease, so
    ///   every path reaches the terminal (no cycles).
    ///
    /// Compiled only with the `audit` cargo feature; debug builds of
    /// [`DdEngine`](crate::DdEngine) call this before answering every
    /// state query.
    ///
    /// # Errors
    ///
    /// Returns the list of violation descriptions.
    #[cfg(feature = "audit")]
    pub fn audit(&self) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        self.vectors.audit("vector", &mut violations);
        self.matrices.audit("matrix", &mut violations);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

impl Default for DdPackage {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_edges_collapse() {
        let mut p = DdPackage::new();
        let e = p
            .vectors
            .make_node(&mut p.ctable, 0, [VEdge::ZERO, VEdge::ZERO]);
        assert!(e.is_zero());
        let m = p.matrices.make_node(&mut p.ctable, 0, [MEdge::ZERO; 4]);
        assert!(m.is_zero());
    }

    #[test]
    fn normalisation_extracts_max_weight() {
        let mut p = DdPackage::new();
        let half = Complex::real(0.5);
        let quarter = Complex::real(0.25);
        let e = p.vectors.make_node(
            &mut p.ctable,
            0,
            [VEdge::terminal(quarter), VEdge::terminal(half)],
        );
        // Max-magnitude child (index 1) becomes 1; factor 0.5 extracted.
        assert!(e.weight.approx_eq(half, 1e-12));
        let node = p.vectors.node(e.node);
        assert!(node.children[1].weight.approx_eq(Complex::ONE, 1e-12));
        assert!(node.children[0].weight.approx_eq(half, 1e-12));
    }

    #[test]
    fn tie_tolerance_is_exact_for_vectors_and_loose_for_matrices() {
        // Magnitudes 1 and 1 + 8e-13 differ by less than the matrix
        // tie tolerance: vectors extract the larger, matrices the first.
        let mut p = DdPackage::with_tolerance(1e-300);
        let (a, b) = (Complex::ONE, Complex::real(1.0 + 4e-13));
        let v = p
            .vectors
            .make_node(&mut p.ctable, 0, [VEdge::terminal(a), VEdge::terminal(b)]);
        assert_eq!(v.weight, b);
        assert_eq!(p.vectors.node(v.node).children[1].weight, Complex::ONE);
        let m = p.matrices.make_node(
            &mut p.ctable,
            0,
            [
                MEdge::terminal(a),
                MEdge::terminal(b),
                MEdge::ZERO,
                MEdge::ZERO,
            ],
        );
        assert_eq!(m.weight, a);
        assert_eq!(p.matrices.node(m.node).children[0].weight, Complex::ONE);
    }

    #[test]
    fn unique_table_shares_nodes() {
        let mut p = DdPackage::new();
        let mk = |p: &mut DdPackage| {
            let t = VEdge::terminal(Complex::ONE);
            p.vectors.make_node(&mut p.ctable, 0, [t, VEdge::ZERO])
        };
        let a = mk(&mut p);
        let b = mk(&mut p);
        assert_eq!(a.node, b.node, "identical nodes must be shared");
        assert_eq!(p.vector_arena_size(), 1);
    }

    #[test]
    fn tolerance_merges_nearby_nodes() {
        let mut p = DdPackage::new();
        let a = p.vectors.make_node(
            &mut p.ctable,
            0,
            [
                VEdge::terminal(Complex::ONE),
                VEdge::terminal(Complex::real(0.5)),
            ],
        );
        let b = p.vectors.make_node(
            &mut p.ctable,
            0,
            [
                VEdge::terminal(Complex::ONE),
                VEdge::terminal(Complex::real(0.5 + 1e-14)),
            ],
        );
        assert_eq!(a.node, b.node);
    }

    #[test]
    fn identity_edges_are_linear_chain() {
        let mut p = DdPackage::new();
        let _ = p.identity_edge(9);
        // 10 identity nodes, one per level.
        assert_eq!(p.matrix_arena_size(), 10);
        let i5a = p.identity_edge(5);
        let i5b = p.identity_edge(5);
        assert_eq!(i5a.node, i5b.node);
        assert!(i5a.weight.approx_eq(Complex::ONE, 1e-15));
    }

    #[test]
    fn stats_count_unique_table_sharing() {
        let mut p = DdPackage::new();
        let mk = |p: &mut DdPackage| {
            let t = VEdge::terminal(Complex::ONE);
            p.vectors.make_node(&mut p.ctable, 0, [t, VEdge::ZERO])
        };
        let before = p.stats();
        mk(&mut p); // miss (insert)
        mk(&mut p); // hit (shared)
        let after = p.stats();
        assert_eq!(after.unique_lookups - before.unique_lookups, 2);
        assert_eq!(after.unique_hits - before.unique_hits, 1);
        assert!(after.ctable_lookups > before.ctable_lookups);
        assert_eq!(after.ctable_entries as usize, p.ctable.len());
    }

    #[test]
    fn stats_count_compute_cache_hits() {
        let mut p = DdPackage::new();
        // (Unnormalised) H ⊗ I: identity operands skip the cache.
        let below = p.identity_edge(2);
        let minus = below.scaled(&mut p.ctable, -Complex::ONE);
        let h = p
            .matrices
            .make_node(&mut p.ctable, 3, [below, below, below, minus]);
        let before = p.stats();
        let _ = p.mat_mat(h, h); // populates the mm cache
        let mid = p.stats();
        let _ = p.mat_mat(h, h); // fully served from the cache
        let after = p.stats();
        assert!(mid.compute_lookups > before.compute_lookups);
        assert_eq!(after.compute_lookups, mid.compute_lookups + 1);
        assert_eq!(after.compute_hits, mid.compute_hits + 1);
    }

    #[test]
    fn vadd_of_opposites_is_zero() {
        let mut p = DdPackage::new();
        let t = VEdge::terminal(Complex::ONE);
        let e = p.vectors.make_node(&mut p.ctable, 0, [t, VEdge::ZERO]);
        let minus = e.scaled(&mut p.ctable, -Complex::ONE);
        let sum = p.vectors.add(&mut p.ctable, e, minus);
        assert!(sum.is_zero());
    }

    #[test]
    fn mat_mat_identity_is_neutral() {
        let mut p = DdPackage::new();
        let i = p.identity_edge(2);
        let prod = p.mat_mat(i, i);
        assert_eq!(prod.node, i.node);
        assert!(prod.weight.approx_eq(Complex::ONE, 1e-12));
    }

    #[test]
    fn mat_mat_with_identity_skips_the_cache() {
        let mut p = DdPackage::new();
        let i = p.identity_edge(3);
        let below = p.identity_edge(2);
        let minus = below.scaled(&mut p.ctable, -Complex::ONE);
        let h = p
            .matrices
            .make_node(&mut p.ctable, 3, [below, below, below, minus]);
        let w = Complex::new(0.0, 2.0);
        let scaled = i.scaled(&mut p.ctable, w);
        let before = p.stats();
        let left = p.mat_mat(scaled, h);
        let right = p.mat_mat(h, scaled);
        assert_eq!(p.stats().compute_lookups, before.compute_lookups);
        for prod in [left, right] {
            assert_eq!(prod.node, h.node);
            assert!(prod.weight.approx_eq(h.weight * w, 1e-12));
        }
    }

    #[test]
    fn node_norm_of_normalised_basis_chain() {
        let mut p = DdPackage::new();
        let t = VEdge::terminal(Complex::ONE);
        let mut e = p.vectors.make_node(&mut p.ctable, 0, [t, VEdge::ZERO]);
        e = p.vectors.make_node(&mut p.ctable, 1, [e, VEdge::ZERO]);
        assert!((p.node_norm_sqr(e.node) - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod tolerance_tests {
    use super::*;

    #[test]
    fn tolerance_controls_sharing() {
        // The same QFT-ish weights: with a generous tolerance the nodes
        // merge; with an absurdly tight one they do not.
        use qdt_circuit::generators;
        let qc = generators::qft(6, false);
        let mut loose = DdPackage::new();
        let v1 = loose.run_circuit(&qc).expect("simulates");
        let mut tight = DdPackage::with_tolerance(1e-300);
        let v2 = tight.run_circuit(&qc).expect("simulates");
        let n_loose = loose.vector_node_count(&v1);
        let n_tight = tight.vector_node_count(&v2);
        assert!(
            n_loose <= n_tight,
            "canonicalisation must never increase size"
        );
        // Amplitudes agree regardless.
        for i in [0u128, 1, 33, 63] {
            assert!(loose
                .amplitude(&v1, i)
                .approx_eq(tight.amplitude(&v2, i), 1e-9));
        }
    }

    #[cfg(feature = "audit")]
    mod audit {
        use super::*;

        #[test]
        fn clean_package_passes_audit() {
            let mut p = DdPackage::new();
            let qc = qdt_circuit::generators::qft(5, false);
            p.run_circuit(&qc).expect("simulates");
            assert_eq!(p.audit(), Ok(()));
        }

        #[test]
        fn corrupted_weight_is_detected() {
            let mut p = DdPackage::new();
            let qc = qdt_circuit::generators::ghz(3);
            p.run_circuit(&qc).expect("simulates");
            assert_eq!(p.audit(), Ok(()));
            // Sabotage one child weight: the normalization invariant
            // (some child has weight exactly 1) and the unique-table key
            // both break.
            let node = p.vectors.nodes.len() - 1;
            for c in &mut p.vectors.nodes[node].children {
                c.weight = Complex::real(2.0);
            }
            let violations = p.audit().expect_err("corruption must be caught");
            assert!(!violations.is_empty());
        }
    }
}
