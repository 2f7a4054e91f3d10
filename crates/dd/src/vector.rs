//! Vector decision diagrams: state construction, amplitude
//! reconstruction, measurement and statistics.

use qdt_complex::{Complex, FastMap};
use rand::Rng;

use crate::package::DdPackage;
use crate::table::{NodeId, VEdge, TERMINAL};
use crate::VectorDd;

impl DdPackage {
    /// The basis state `|0…0⟩` as a vector DD (a linear chain of `n`
    /// nodes).
    pub fn zero_state(&mut self, num_qubits: usize) -> VectorDd {
        self.basis_state(num_qubits, 0)
    }

    /// The computational basis state `|index⟩`.
    ///
    /// The index is a `u128` so that states far beyond the array-based
    /// limit (e.g. 100-qubit GHZ inputs) remain addressable.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 128` or the index uses bits `≥ num_qubits`.
    pub fn basis_state(&mut self, num_qubits: usize, index: u128) -> VectorDd {
        assert!(num_qubits <= 128, "basis_state index limited to 128 bits");
        if num_qubits < 128 {
            assert!(index < (1u128 << num_qubits), "basis index out of range");
        }
        let mut e = VEdge::terminal(Complex::ONE);
        for q in 0..num_qubits {
            let bit = (index >> q) & 1 == 1;
            let children = if bit {
                [VEdge::ZERO, e]
            } else {
                [e, VEdge::ZERO]
            };
            e = self.vectors.make_node(&mut self.ctable, q as u16, children);
        }
        VectorDd {
            root: e,
            num_qubits,
        }
    }

    /// Builds a vector DD from a dense amplitude slice (length `2^n`).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_amplitudes(&mut self, amps: &[Complex]) -> VectorDd {
        let len = amps.len();
        assert!(
            len > 0 && len & (len - 1) == 0,
            "length must be a power of two"
        );
        let num_qubits = len.trailing_zeros() as usize;
        let root = self.build_from_slice(amps, num_qubits);
        VectorDd { root, num_qubits }
    }

    fn build_from_slice(&mut self, amps: &[Complex], level: usize) -> VEdge {
        if level == 0 {
            return VEdge::terminal(self.canon(amps[0]));
        }
        let half = amps.len() / 2;
        let lo = self.build_from_slice(&amps[..half], level - 1);
        let hi = self.build_from_slice(&amps[half..], level - 1);
        self.vectors
            .make_node(&mut self.ctable, (level - 1) as u16, [lo, hi])
    }

    /// Reconstructs the amplitude of basis state `index` by multiplying
    /// the edge weights along the corresponding path (the paper's
    /// Example 2).
    pub fn amplitude(&self, v: &VectorDd, index: u128) -> Complex {
        let mut w = v.root.weight;
        let mut node = v.root.node;
        if w == Complex::ZERO {
            return Complex::ZERO;
        }
        while node != TERMINAL {
            let n = self.vectors.node(node);
            let bit = ((index >> n.level) & 1) as usize;
            let e = n.children[bit];
            if e.is_zero() {
                return Complex::ZERO;
            }
            w *= e.weight;
            node = e.node;
        }
        w
    }

    /// Expands the DD into the dense `2^n` amplitude vector (for
    /// cross-validation against the array representation).
    ///
    /// # Panics
    ///
    /// Panics for more than 24 qubits (the dense expansion would not fit).
    pub fn to_amplitudes(&self, v: &VectorDd) -> Vec<Complex> {
        assert!(v.num_qubits <= 24, "dense expansion limited to 24 qubits");
        let mut out = vec![Complex::ZERO; 1usize << v.num_qubits];
        self.fill_amplitudes(v.root, v.num_qubits, 0, Complex::ONE, &mut out);
        out
    }

    fn fill_amplitudes(
        &self,
        e: VEdge,
        level: usize,
        prefix: usize,
        acc: Complex,
        out: &mut [Complex],
    ) {
        if e.is_zero() {
            return;
        }
        let acc = acc * e.weight;
        if e.node == TERMINAL {
            out[prefix] = acc;
            return;
        }
        let n = self.vectors.node(e.node);
        let bit = 1usize << n.level;
        let (c0, c1) = (n.children[0], n.children[1]);
        let _ = level;
        self.fill_amplitudes(c0, n.level as usize, prefix, acc, out);
        self.fill_amplitudes(c1, n.level as usize, prefix | bit, acc, out);
    }

    /// The number of distinct nodes reachable from the root (the paper's
    /// DD size metric; terminals excluded).
    pub fn vector_node_count(&self, v: &VectorDd) -> usize {
        self.vectors.count_reachable(v.root.node)
    }

    /// The squared 2-norm of the represented state.
    pub fn norm_sqr(&mut self, v: &VectorDd) -> f64 {
        if v.root.is_zero() {
            return 0.0;
        }
        v.root.weight.norm_sqr() * self.node_norm_sqr(v.root.node)
    }

    /// Rescales the root weight so the state has unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state is the zero vector.
    pub fn normalize(&mut self, v: &mut VectorDd) {
        let n = self.norm_sqr(v).sqrt();
        assert!(n > 1e-300, "cannot normalize the zero vector");
        v.root = v.root.scaled(&mut self.ctable, Complex::real(1.0 / n));
    }

    /// Probability of measuring `qubit` as |1⟩.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn probability_of_one(&mut self, v: &VectorDd, qubit: usize) -> f64 {
        assert!(qubit < v.num_qubits, "qubit out of range");
        let total = self.norm_sqr(v);
        if total == 0.0 {
            return 0.0;
        }
        let mass = self.one_mass(v.root.node, qubit as u16) * v.root.weight.norm_sqr();
        (mass / total).clamp(0.0, 1.0)
    }

    /// Probability mass (unnormalised) of qubit `q` being 1 within the
    /// subtree of `id` (which sits above or at level `q`).
    fn one_mass(&mut self, id: NodeId, q: u16) -> f64 {
        if id == TERMINAL {
            return 0.0;
        }
        let node = self.vectors.node(id).clone();
        if node.level == q {
            let c1 = node.children[1];
            if c1.is_zero() {
                return 0.0;
            }
            return c1.weight.norm_sqr() * self.node_norm_sqr(c1.node);
        }
        debug_assert!(node.level > q, "one_mass descended past qubit level");
        let mut acc = 0.0;
        for c in node.children {
            if !c.is_zero() {
                acc += c.weight.norm_sqr() * self.one_mass(c.node, q);
            }
        }
        acc
    }

    /// Projects `qubit` onto `outcome` (renormalising) and returns the
    /// pre-measurement probability of that outcome.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has (numerically) zero probability.
    pub fn project_qubit(&mut self, v: &mut VectorDd, qubit: usize, outcome: bool) -> f64 {
        let p1 = self.probability_of_one(v, qubit);
        let p = if outcome { p1 } else { 1.0 - p1 };
        assert!(p > 1e-12, "projection onto zero-probability outcome");
        let root = self.project_edge(v.root, qubit as u16, outcome);
        v.root = root;
        self.normalize(v);
        p
    }

    fn project_edge(&mut self, e: VEdge, q: u16, outcome: bool) -> VEdge {
        if e.is_zero() || e.node == TERMINAL {
            // A terminal here means all remaining qubits (including q) are
            // implicitly... cannot happen: vectors have nodes at every
            // level along non-zero paths.
            return e;
        }
        let node = self.vectors.node(e.node).clone();
        if node.level == q {
            let children = if outcome {
                [VEdge::ZERO, node.children[1]]
            } else {
                [node.children[0], VEdge::ZERO]
            };
            let r = self
                .vectors
                .make_node(&mut self.ctable, node.level, children);
            return r.scaled(&mut self.ctable, e.weight);
        }
        let c0 = self.project_edge(node.children[0], q, outcome);
        let c1 = self.project_edge(node.children[1], q, outcome);
        let r = self
            .vectors
            .make_node(&mut self.ctable, node.level, [c0, c1]);
        r.scaled(&mut self.ctable, e.weight)
    }

    /// Measures `qubit`, collapsing the state.
    pub fn measure_qubit<R: Rng + ?Sized>(
        &mut self,
        v: &mut VectorDd,
        qubit: usize,
        rng: &mut R,
    ) -> bool {
        let p1 = self.probability_of_one(v, qubit);
        let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
        self.project_qubit(v, qubit, outcome);
        outcome
    }

    /// Samples one full-register measurement outcome *without* collapsing
    /// the state, walking the diagram from the root (cost: `O(n)` per
    /// sample, independent of `2^n`).
    pub fn sample_once<R: Rng + ?Sized>(&mut self, v: &VectorDd, rng: &mut R) -> u128 {
        let mut result: u128 = 0;
        let mut node = v.root.node;
        while node != TERMINAL {
            let n = self.vectors.node(node).clone();
            let m0 = if n.children[0].is_zero() {
                0.0
            } else {
                n.children[0].weight.norm_sqr() * self.node_norm_sqr(n.children[0].node)
            };
            let m1 = if n.children[1].is_zero() {
                0.0
            } else {
                n.children[1].weight.norm_sqr() * self.node_norm_sqr(n.children[1].node)
            };
            let p1 = if m0 + m1 > 0.0 { m1 / (m0 + m1) } else { 0.0 };
            let bit = rng.gen_bool(p1.clamp(0.0, 1.0));
            if bit {
                result |= 1u128 << n.level;
                node = n.children[1].node;
            } else {
                node = n.children[0].node;
            }
        }
        result
    }

    /// The fidelity `|⟨a|b⟩|²` between two vector DDs.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn fidelity(&mut self, a: &VectorDd, b: &VectorDd) -> f64 {
        self.inner_product(a, b).norm_sqr()
    }

    /// The inner product `⟨a|b⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn inner_product(&mut self, a: &VectorDd, b: &VectorDd) -> Complex {
        assert_eq!(a.num_qubits, b.num_qubits, "qubit count mismatch");
        self.inner_rec(a.root, b.root, &mut FastMap::default())
    }

    /// `⟨a|b⟩` of two edges. `memo` holds, per node pair, the sum over
    /// the children pairs, so each pair is expanded once per call: the
    /// cost is the product of the two diagrams' sizes, not their path
    /// counts. The sum is the same expression the path walk computes,
    /// so the result is bit-identical to it.
    fn inner_rec(
        &self,
        a: VEdge,
        b: VEdge,
        memo: &mut FastMap<(NodeId, NodeId), Complex>,
    ) -> Complex {
        if a.is_zero() || b.is_zero() {
            return Complex::ZERO;
        }
        if a.node == TERMINAL && b.node == TERMINAL {
            return a.weight.conj() * b.weight;
        }
        debug_assert!(a.node != TERMINAL && b.node != TERMINAL, "level skew");
        let acc = match memo.get(&(a.node, b.node)) {
            Some(&acc) => acc,
            None => {
                let an = self.vectors.node(a.node);
                let bn = self.vectors.node(b.node);
                let mut acc = Complex::ZERO;
                for i in 0..2 {
                    acc += self.inner_rec(an.children[i], bn.children[i], memo);
                }
                memo.insert((a.node, b.node), acc);
                acc
            }
        };
        a.weight.conj() * b.weight * acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_complex::FRAC_1_SQRT_2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basis_state_amplitudes() {
        let mut p = DdPackage::new();
        let v = p.basis_state(3, 0b101);
        assert!(p.amplitude(&v, 0b101).approx_eq(Complex::ONE, 1e-12));
        assert!(p.amplitude(&v, 0b100).approx_eq(Complex::ZERO, 1e-12));
        assert_eq!(p.vector_node_count(&v), 3);
    }

    #[test]
    fn from_amplitudes_round_trips() {
        let mut p = DdPackage::new();
        let s = FRAC_1_SQRT_2;
        let amps = vec![
            Complex::real(s),
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(s),
        ];
        let v = p.from_amplitudes(&amps);
        let back = p.to_amplitudes(&v);
        for (a, b) in amps.iter().zip(&back) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn bell_state_dd_matches_paper_fig_1() {
        // Fig. 1b: the Bell state needs 3 nodes (one per qubit level on
        // each distinct sub-vector), and the |00⟩ amplitude reconstructs
        // as 1/√2 · 1 · 1.
        let mut p = DdPackage::new();
        let s = FRAC_1_SQRT_2;
        let v = p.from_amplitudes(&[
            Complex::real(s),
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(s),
        ]);
        assert_eq!(p.vector_node_count(&v), 3);
        assert!(v.root.weight.approx_eq(Complex::real(s), 1e-12));
        assert!(p.amplitude(&v, 0).approx_eq(Complex::real(s), 1e-12));
    }

    #[test]
    fn uniform_superposition_is_one_node_per_level() {
        // H|0⟩^⊗n has all amplitudes equal: maximal sharing, n nodes.
        let mut p = DdPackage::new();
        let n = 6;
        let amp = Complex::real(1.0 / (1u64 << (n as u64 / 2)) as f64); // placeholder magnitude
        let amps = vec![amp; 1 << n];
        let v = p.from_amplitudes(&amps);
        assert_eq!(p.vector_node_count(&v), n);
    }

    #[test]
    fn norm_and_normalize() {
        let mut p = DdPackage::new();
        let amps = vec![
            Complex::real(2.0),
            Complex::ZERO,
            Complex::ZERO,
            Complex::ZERO,
        ];
        let mut v = p.from_amplitudes(&amps);
        assert!((p.norm_sqr(&v) - 4.0).abs() < 1e-12);
        p.normalize(&mut v);
        assert!((p.norm_sqr(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probability_of_one_on_bell() {
        let mut p = DdPackage::new();
        let s = FRAC_1_SQRT_2;
        let v = p.from_amplitudes(&[
            Complex::real(s),
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(s),
        ]);
        assert!((p.probability_of_one(&v, 0) - 0.5).abs() < 1e-12);
        assert!((p.probability_of_one(&v, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn projection_collapses_bell() {
        let mut p = DdPackage::new();
        let s = FRAC_1_SQRT_2;
        let mut v = p.from_amplitudes(&[
            Complex::real(s),
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(s),
        ]);
        let prob = p.project_qubit(&mut v, 0, true);
        assert!((prob - 0.5).abs() < 1e-12);
        assert!(p.amplitude(&v, 0b11).abs() > 0.999);
        assert!(p.amplitude(&v, 0b00).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut p = DdPackage::new();
        let s = FRAC_1_SQRT_2;
        let v = p.from_amplitudes(&[
            Complex::real(s),
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(s),
        ]);
        let mut rng = StdRng::seed_from_u64(21);
        let mut count11 = 0;
        for _ in 0..10_000 {
            let r = p.sample_once(&v, &mut rng);
            assert!(r == 0 || r == 3, "impossible outcome {r}");
            if r == 3 {
                count11 += 1;
            }
        }
        assert!((count11 as f64 / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn inner_product_of_orthogonal_states() {
        let mut p = DdPackage::new();
        let a = p.basis_state(3, 0b010);
        let b = p.basis_state(3, 0b011);
        assert!(p.inner_product(&a, &b).abs() < 1e-12);
        assert!((p.fidelity(&a, &a) - 1.0).abs() < 1e-12);
    }

    /// `⟨a|b⟩` by walking every root-to-terminal path pair: the
    /// unmemoised recursion the package's inner product must reproduce
    /// bit for bit.
    fn inner_by_paths(p: &DdPackage, a: VEdge, b: VEdge) -> Complex {
        if a.is_zero() || b.is_zero() {
            return Complex::ZERO;
        }
        if a.node == TERMINAL && b.node == TERMINAL {
            return a.weight.conj() * b.weight;
        }
        let an = p.vectors.node(a.node);
        let bn = p.vectors.node(b.node);
        let mut acc = Complex::ZERO;
        for i in 0..2 {
            acc += inner_by_paths(p, an.children[i], bn.children[i]);
        }
        a.weight.conj() * b.weight * acc
    }

    #[test]
    fn memoised_inner_product_equals_the_path_walk_bit_for_bit() {
        use qdt_circuit::{generators, PauliString};
        let mut rng = StdRng::seed_from_u64(13);
        let circuits = [
            generators::qft(7, true),
            generators::random_circuit(8, 4, &mut rng),
            generators::random_clifford_seeded(12, 2, 3),
        ];
        for qc in &circuits {
            let mut p = DdPackage::new();
            let v = p.run_circuit(qc).unwrap();
            let n = v.num_qubits();
            let pauli: PauliString = (0..n)
                .map(|q| ["X", "Y", "Z"][q % 3])
                .collect::<String>()
                .parse()
                .unwrap();
            let mut w = v;
            for (q, g) in pauli.support() {
                w = p.apply_gate(&w, &g.matrix(), q, &[]);
            }
            // |+…+⟩ has one node per level, so its nodes meet many
            // distinct partner nodes: the memo must key on both.
            let mut layer = qdt_circuit::Circuit::new(n);
            for q in 0..n {
                layer.h(q);
            }
            let plus = p.run_circuit(&layer).unwrap();
            for (a, b) in [(v, v), (v, w), (w, v), (plus, w), (w, plus)] {
                let memoised = p.inner_product(&a, &b);
                let walked = inner_by_paths(&p, a.root, b.root);
                assert_eq!(memoised.to_bits(), walked.to_bits());
            }
        }
    }

    #[test]
    fn huge_basis_state_is_cheap() {
        // 120 qubits — far beyond any array — is a 120-node chain.
        let mut p = DdPackage::new();
        let v = p.basis_state(120, (1u128 << 119) | 1);
        assert_eq!(p.vector_node_count(&v), 120);
        assert!(p
            .amplitude(&v, (1u128 << 119) | 1)
            .approx_eq(Complex::ONE, 1e-12));
        assert!(p.amplitude(&v, 0).approx_eq(Complex::ZERO, 1e-12));
    }
}

impl DdPackage {
    /// The expectation value `⟨ψ|P|ψ⟩` of a Pauli string on a vector DD.
    ///
    /// Cost is dominated by one gate application per non-identity factor
    /// — structured states stay compact throughout.
    ///
    /// # Panics
    ///
    /// Panics if the string's width differs from the state's.
    pub fn expectation_pauli(&mut self, v: &VectorDd, pauli: &qdt_circuit::PauliString) -> f64 {
        assert_eq!(pauli.num_qubits(), v.num_qubits, "Pauli width mismatch");
        let mut transformed = *v;
        for (q, p) in pauli.support() {
            transformed = self.apply_gate(&transformed, &p.matrix(), q, &[]);
        }
        self.inner_product(v, &transformed).re
    }
}

#[cfg(test)]
mod pauli_tests {
    use super::*;
    use qdt_circuit::{generators, PauliString};

    #[test]
    fn dd_expectations_match_array() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let qc = qdt_circuit::generators::random_circuit(4, 3, &mut rng);
        let psi = qdt_array::StateVector::from_circuit(&qc).unwrap();
        let mut dd = DdPackage::new();
        let v = dd.run_circuit(&qc).unwrap();
        for s in ["ZIII", "XXII", "YZXI", "ZZZZ"] {
            let p: PauliString = s.parse().unwrap();
            let a = psi.expectation_pauli(&p);
            let d = dd.expectation_pauli(&v, &p);
            assert!((a - d).abs() < 1e-9, "{s}: array {a} vs dd {d}");
        }
    }

    #[test]
    fn ghz_stabilizers_at_scale() {
        // 64-qubit GHZ stabiliser expectation on DDs — impossible for
        // arrays, instantaneous here.
        let mut dd = DdPackage::new();
        let v = dd.run_circuit(&generators::ghz(64)).unwrap();
        let all_x: PauliString = "X".repeat(64).parse().unwrap();
        assert!((dd.expectation_pauli(&v, &all_x) - 1.0).abs() < 1e-8);
        let zz_head: PauliString = ("ZZ".to_string() + &"I".repeat(62)).parse().unwrap();
        assert!((dd.expectation_pauli(&v, &zz_head) - 1.0).abs() < 1e-8);
    }
}
