//! Matrix product states (MPS) — the "specialised type of tensor
//! network" of Section IV (paper references \[31\], \[35\]).
//!
//! An MPS decomposes an `n`-qubit state into a chain of rank-3 tensors
//! `A_i[l, s, r]` whose bond dimensions grow only with the entanglement
//! across each cut. Gates are applied locally; two-qubit gates are
//! re-split by an SVD and the bond is truncated to a maximum χ, trading
//! fidelity for memory — the knob that "alleviates the 2^n cost" for
//! low-entanglement states (claim C4 in DESIGN.md).

use qdt_circuit::{Circuit, Instruction, OpKind};
use qdt_complex::{svd, Complex, Matrix};
use rand::RngCore;

use crate::network::local_unitary;
use crate::TensorError;

/// One site tensor `A[l, s, r]` with physical dimension 2, stored
/// row-major as `data[(l*2 + s)*right + r]`.
#[derive(Debug, Clone)]
struct Site {
    left: usize,
    right: usize,
    data: Vec<Complex>,
}

impl Site {
    fn get(&self, l: usize, s: usize, r: usize) -> Complex {
        self.data[(l * 2 + s) * self.right + r]
    }
}

/// A matrix product state simulator with bounded bond dimension.
///
/// # Example
///
/// ```
/// use qdt_tensor::mps::Mps;
/// use qdt_circuit::generators;
///
/// // GHZ entanglement across any cut is 1 ebit: χ = 2 is exact, even
/// // for widths no dense array could hold.
/// let mps = Mps::from_circuit(&generators::ghz(64), 2)?;
/// assert_eq!(mps.max_observed_bond(), 2);
/// assert!(mps.truncation_error() < 1e-12);
/// let amp = mps.amplitude(0);
/// assert!((amp.re - 1.0 / 2f64.sqrt()).abs() < 1e-9);
/// # Ok::<(), qdt_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mps {
    sites: Vec<Site>,
    max_bond: usize,
    truncation_error: f64,
}

impl Mps {
    /// The product state `|0…0⟩` with bond cap `max_bond`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits == 0` or `max_bond == 0`.
    pub fn zero_state(num_qubits: usize, max_bond: usize) -> Self {
        assert!(num_qubits > 0, "MPS needs at least one site");
        assert!(max_bond > 0, "bond dimension must be positive");
        let sites = (0..num_qubits)
            .map(|_| Site {
                left: 1,
                right: 1,
                data: vec![Complex::ONE, Complex::ZERO],
            })
            .collect();
        Mps {
            sites,
            max_bond,
            truncation_error: 0.0,
        }
    }

    /// Runs a unitary circuit on `|0…0⟩` with the given bond cap.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NonUnitary`] for measurement/reset and for
    /// gates on three or more qubits (decompose them first).
    pub fn from_circuit(circuit: &Circuit, max_bond: usize) -> Result<Self, TensorError> {
        let mut mps = Mps::zero_state(circuit.num_qubits().max(1), max_bond);
        for inst in circuit {
            mps.apply_instruction(inst)?;
        }
        // Debug builds with the `audit` feature verify the chain's bond
        // and normalisation invariants after every circuit conversion.
        #[cfg(all(debug_assertions, feature = "audit"))]
        if let Err(violations) = mps.audit() {
            panic!("MPS audit failed after circuit application: {violations:?}");
        }
        Ok(mps)
    }

    /// The number of qubits (sites).
    pub fn num_qubits(&self) -> usize {
        self.sites.len()
    }

    /// The bond-dimension cap χ.
    pub fn max_bond(&self) -> usize {
        self.max_bond
    }

    /// The largest bond dimension currently present in the chain.
    pub fn max_observed_bond(&self) -> usize {
        self.sites.iter().map(|s| s.right).max().unwrap_or(1)
    }

    /// The interior bond dimensions of the chain, left to right
    /// (`n - 1` entries; empty for a single-site chain) — the bond
    /// spectrum telemetry histograms per gate.
    pub fn bond_dims(&self) -> Vec<usize> {
        self.sites
            .iter()
            .take(self.sites.len().saturating_sub(1))
            .map(|s| s.right)
            .collect()
    }

    /// Accumulated discarded probability weight over all truncations
    /// (0 when the cap was never hit).
    pub fn truncation_error(&self) -> f64 {
        self.truncation_error
    }

    /// Total entries stored across all site tensors — the MPS memory
    /// footprint (`O(n·χ²)` instead of `2^n`).
    pub fn memory_entries(&self) -> usize {
        self.sites.iter().map(|s| s.data.len()).sum()
    }

    /// Applies one IR instruction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NonUnitary`] for non-unitary or >2-qubit
    /// instructions.
    pub fn apply_instruction(&mut self, inst: &Instruction) -> Result<(), TensorError> {
        if matches!(inst.kind, OpKind::Barrier(_)) {
            return Ok(());
        }
        let (u, qubits) =
            local_unitary(inst).ok_or_else(|| TensorError::NonUnitary { op: inst.name() })?;
        match qubits.len() {
            1 => {
                self.apply_1q(&u, qubits[0]);
                Ok(())
            }
            2 => {
                self.apply_2q_anywhere(&u, qubits[0], qubits[1]);
                Ok(())
            }
            _ => Err(TensorError::NonUnitary {
                op: format!("{}-qubit gate (decompose for MPS)", qubits.len()),
            }),
        }
    }

    /// Applies a 2×2 gate to one site (never changes bond dimensions).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not 2×2 or the site is out of range.
    pub fn apply_1q(&mut self, gate: &Matrix, site: usize) {
        assert_eq!((gate.rows(), gate.cols()), (2, 2), "gate must be 2x2");
        let s = &mut self.sites[site];
        let (l, r) = (s.left, s.right);
        let mut new = vec![Complex::ZERO; s.data.len()];
        for li in 0..l {
            for ri in 0..r {
                let a0 = s.data[(li * 2) * r + ri];
                let a1 = s.data[(li * 2 + 1) * r + ri];
                new[(li * 2) * r + ri] = gate.get(0, 0) * a0 + gate.get(0, 1) * a1;
                new[(li * 2 + 1) * r + ri] = gate.get(1, 0) * a0 + gate.get(1, 1) * a1;
            }
        }
        s.data = new;
    }

    /// Stochastically applies a single-qubit Kraus channel: each
    /// operator's branch is weighted by its Born probability, one branch
    /// is sampled, kept, and renormalised. Bond dimensions never change
    /// (all operators are 2×2), so the trajectory stays a valid MPS.
    ///
    /// Returns the index of the chosen Kraus operator.
    ///
    /// # Panics
    ///
    /// Panics if `kraus` is empty, the site is out of range, or an
    /// operator is not 2×2.
    pub fn apply_kraus(&mut self, kraus: &[Matrix], site: usize, rng: &mut dyn RngCore) -> usize {
        assert!(!kraus.is_empty(), "empty Kraus operator list");
        assert!(site < self.sites.len(), "site out of range");
        let mut weights = Vec::with_capacity(kraus.len());
        let mut branches = Vec::with_capacity(kraus.len());
        for k in kraus {
            let mut cand = self.clone();
            cand.apply_1q(k, site);
            weights.push(cand.norm_sqr());
            branches.push(cand);
        }
        let chosen = qdt_engine::choose_weighted(&weights, rng);
        *self = branches.swap_remove(chosen);
        let scale = 1.0 / weights[chosen].sqrt().max(1e-300);
        for a in &mut self.sites[site].data {
            *a = a.scale(scale);
        }
        chosen
    }

    /// Probability of measuring `site` as `|1⟩`, relative to the
    /// current norm (so bond-truncated states still yield a proper
    /// marginal) — the quantity mid-circuit measurement draws from.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn probability_of_one(&self, site: usize) -> f64 {
        assert!(site < self.sites.len(), "site out of range");
        let mut cand = self.clone();
        cand.apply_1q(&basis_projector(true), site);
        (cand.norm_sqr() / self.norm_sqr().max(1e-300)).clamp(0.0, 1.0)
    }

    /// Projects `site` onto `outcome` and renormalises to unit norm,
    /// returning the outcome's pre-collapse probability.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range or the outcome has
    /// (numerically) zero probability.
    pub fn project_qubit(&mut self, site: usize, outcome: bool) -> f64 {
        assert!(site < self.sites.len(), "site out of range");
        let before = self.norm_sqr();
        self.apply_1q(&basis_projector(outcome), site);
        let after = self.norm_sqr();
        let p = (after / before.max(1e-300)).clamp(0.0, 1.0);
        assert!(p > 1e-12, "projection onto zero-probability outcome");
        let scale = 1.0 / after.sqrt().max(1e-300);
        for a in &mut self.sites[site].data {
            *a = a.scale(scale);
        }
        p
    }

    /// Applies a 4×4 gate whose local bit 0 is `qa` and local bit 1 is
    /// `qb`, routing with SWAPs if the sites are not adjacent.
    fn apply_2q_anywhere(&mut self, u: &Matrix, qa: usize, qb: usize) {
        assert_ne!(qa, qb, "two-qubit gate needs distinct sites");
        // Move qb next to qa by swapping neighbours.
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        // Swap hi down to lo+1.
        for k in ((lo + 1)..hi).rev() {
            self.swap_adjacent(k);
        }
        // Now the pair occupies (lo, lo+1); local bit 0 of `u` is qa.
        let u_local = if qa == lo {
            u.clone()
        } else {
            permute_2q(u) // qa sits on the higher site: swap the bit roles
        };
        self.apply_2q_adjacent(&u_local, lo);
        for k in (lo + 1)..hi {
            self.swap_adjacent(k);
        }
    }

    /// Swaps the physical qubits of sites `k` and `k+1`.
    fn swap_adjacent(&mut self, k: usize) {
        let swap = swap_4x4();
        self.apply_2q_adjacent(&swap, k);
    }

    /// Applies a 4×4 gate (bit 0 = site `i`, bit 1 = site `i+1`) to the
    /// adjacent pair, re-splitting by SVD and truncating to χ.
    fn apply_2q_adjacent(&mut self, u: &Matrix, i: usize) {
        assert_eq!((u.rows(), u.cols()), (4, 4), "gate must be 4x4");
        let (a, b) = (self.sites[i].clone(), self.sites[i + 1].clone());
        let (l, mid, r) = (a.left, a.right, b.right);
        debug_assert_eq!(mid, b.left, "bond mismatch in chain");
        // theta[l, s0, s1, r] = Σ_k A[l,s0,k] B[k,s1,r], then gate applied.
        let mut theta = vec![Complex::ZERO; l * 2 * 2 * r];
        for li in 0..l {
            for s0 in 0..2 {
                for s1 in 0..2 {
                    for ri in 0..r {
                        let mut acc = Complex::ZERO;
                        for k in 0..mid {
                            acc += a.get(li, s0, k) * b.get(k, s1, ri);
                        }
                        theta[((li * 2 + s0) * 2 + s1) * r + ri] = acc;
                    }
                }
            }
        }
        // Apply the gate on the two physical indices.
        let mut gated = vec![Complex::ZERO; theta.len()];
        for li in 0..l {
            for ri in 0..r {
                for s0p in 0..2 {
                    for s1p in 0..2 {
                        let row = s0p | (s1p << 1);
                        let mut acc = Complex::ZERO;
                        for s0 in 0..2 {
                            for s1 in 0..2 {
                                let col = s0 | (s1 << 1);
                                acc += u.get(row, col) * theta[((li * 2 + s0) * 2 + s1) * r + ri];
                            }
                        }
                        gated[((li * 2 + s0p) * 2 + s1p) * r + ri] = acc;
                    }
                }
            }
        }
        // Reshape to an (l·2) × (2·r) matrix: rows (l, s0), cols (s1, r).
        let mut m = Matrix::zeros(l * 2, 2 * r);
        for li in 0..l {
            for s0 in 0..2 {
                for s1 in 0..2 {
                    for ri in 0..r {
                        m.set(
                            li * 2 + s0,
                            s1 * r + ri,
                            gated[((li * 2 + s0) * 2 + s1) * r + ri],
                        );
                    }
                }
            }
        }
        let f = svd(&m);
        // Truncate: keep at most χ singular values (and drop numerical
        // zeros outright).
        let mut chi = f.s.iter().filter(|&&x| x > 1e-14).count().max(1);
        chi = chi.min(self.max_bond);
        let kept: f64 = f.s[..chi].iter().map(|x| x * x).sum();
        let total: f64 = f.s.iter().map(|x| x * x).sum();
        if total > 0.0 {
            self.truncation_error += 1.0 - kept / total;
        }
        let renorm = if kept > 0.0 {
            (total / kept).sqrt()
        } else {
            1.0
        };
        // New A = U columns; new B = σ·V† rows (renormalised).
        let mut adata = vec![Complex::ZERO; l * 2 * chi];
        for li in 0..l {
            for s0 in 0..2 {
                for k in 0..chi {
                    adata[(li * 2 + s0) * chi + k] = f.u.get(li * 2 + s0, k);
                }
            }
        }
        let mut bdata = vec![Complex::ZERO; chi * 2 * r];
        for k in 0..chi {
            let sk = Complex::real(f.s[k] * renorm);
            for s1 in 0..2 {
                for ri in 0..r {
                    bdata[(k * 2 + s1) * r + ri] = sk * f.v.get(s1 * r + ri, k).conj();
                }
            }
        }
        self.sites[i] = Site {
            left: l,
            right: chi,
            data: adata,
        };
        self.sites[i + 1] = Site {
            left: chi,
            right: r,
            data: bdata,
        };
        // The local rescaling above preserves the norm exactly only in
        // canonical form; after a real truncation, restore the global
        // norm explicitly (the chain is not kept canonical).
        if kept < total * (1.0 - 1e-13) {
            let g = self.norm_sqr();
            if g > 1e-300 {
                let inv = Complex::real(1.0 / g.sqrt());
                for v in &mut self.sites[i].data {
                    *v *= inv;
                }
            }
        }
    }

    /// The amplitude `⟨bits|ψ⟩`, contracted left to right in `O(n·χ²)`.
    pub fn amplitude(&self, bits: u128) -> Complex {
        let mut vec = vec![Complex::ONE];
        for (q, site) in self.sites.iter().enumerate() {
            let s = ((bits >> q) & 1) as usize;
            let mut next = vec![Complex::ZERO; site.right];
            for (l, &v) in vec.iter().enumerate() {
                if v == Complex::ZERO {
                    continue;
                }
                for (r, slot) in next.iter_mut().enumerate() {
                    *slot += v * site.get(l, s, r);
                }
            }
            vec = next;
        }
        debug_assert_eq!(vec.len(), 1, "right boundary must close");
        vec[0]
    }

    /// The squared norm `⟨ψ|ψ⟩` (1 up to round-off; truncation is
    /// renormalised away and tracked separately).
    pub fn norm_sqr(&self) -> f64 {
        // Transfer-matrix contraction: E[l, l'] accumulates ⟨ψ|ψ⟩.
        let mut env = vec![Complex::ONE]; // 1x1
        let mut dim = 1usize;
        for site in &self.sites {
            let (l, r) = (site.left, site.right);
            debug_assert_eq!(dim, l);
            let mut next = vec![Complex::ZERO; r * r];
            for li in 0..l {
                for lj in 0..l {
                    let e = env[li * dim.min(l) + lj];
                    if e == Complex::ZERO {
                        continue;
                    }
                    for s in 0..2 {
                        for ri in 0..r {
                            let ai = site.get(li, s, ri).conj();
                            if ai == Complex::ZERO {
                                continue;
                            }
                            for rj in 0..r {
                                next[ri * r + rj] += e * ai * site.get(lj, s, rj);
                            }
                        }
                    }
                }
            }
            env = next;
            dim = r;
        }
        env[0].re
    }

    /// Checks the chain's structural invariants, returning every
    /// violation found (empty on success):
    ///
    /// * **Bond consistency** — `site[i].right == site[i+1].left`, the
    ///   boundary bonds are 1, and every site's data length is
    ///   `left · 2 · right`.
    /// * **Bond cap** — no bond exceeds the configured χ.
    /// * **Normalisation** — `⟨ψ|ψ⟩ ≈ 1` (truncation renormalises, so
    ///   any drift indicates a broken update).
    ///
    /// Compiled only with the `audit` cargo feature.
    ///
    /// # Errors
    ///
    /// Returns the list of violation descriptions.
    #[cfg(feature = "audit")]
    pub fn audit(&self) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        if self.sites.is_empty() {
            violations.push("MPS has no sites".to_string());
            return Err(violations);
        }
        if self.sites[0].left != 1 {
            violations.push(format!(
                "left boundary bond is {}, expected 1",
                self.sites[0].left
            ));
        }
        if self.sites[self.sites.len() - 1].right != 1 {
            violations.push(format!(
                "right boundary bond is {}, expected 1",
                self.sites[self.sites.len() - 1].right
            ));
        }
        for (i, site) in self.sites.iter().enumerate() {
            if site.data.len() != site.left * 2 * site.right {
                violations.push(format!(
                    "site {i}: data length {} != left·2·right = {}",
                    site.data.len(),
                    site.left * 2 * site.right
                ));
            }
            if site.left > self.max_bond || site.right > self.max_bond {
                violations.push(format!(
                    "site {i}: bond ({}, {}) exceeds the cap χ = {}",
                    site.left, site.right, self.max_bond
                ));
            }
            if i + 1 < self.sites.len() && site.right != self.sites[i + 1].left {
                violations.push(format!(
                    "bond mismatch between sites {i} and {}: {} vs {}",
                    i + 1,
                    site.right,
                    self.sites[i + 1].left
                ));
            }
        }
        // Only meaningful when the chain shape is sound.
        if violations.is_empty() {
            let n2 = self.norm_sqr();
            if (n2 - 1.0).abs() > 1e-6 {
                violations.push(format!("⟨ψ|ψ⟩ = {n2}, expected 1 (update broke the norm)"));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Expands to a dense state vector (≤ 20 qubits) for validation.
    ///
    /// # Panics
    ///
    /// Panics above 20 qubits.
    pub fn to_statevector(&self) -> Vec<Complex> {
        let n = self.num_qubits();
        assert!(n <= 20, "dense expansion limited to 20 qubits");
        (0..1u128 << n).map(|b| self.amplitude(b)).collect()
    }
}

/// The 4×4 SWAP matrix in (bit0, bit1) local order.
/// The single-qubit basis projector `|b⟩⟨b|`.
fn basis_projector(outcome: bool) -> Matrix {
    let (z, o) = (Complex::ZERO, Complex::ONE);
    if outcome {
        Matrix::from_rows(2, 2, &[z, z, z, o])
    } else {
        Matrix::from_rows(2, 2, &[o, z, z, z])
    }
}

fn swap_4x4() -> Matrix {
    let mut m = Matrix::zeros(4, 4);
    m.set(0, 0, Complex::ONE);
    m.set(1, 2, Complex::ONE);
    m.set(2, 1, Complex::ONE);
    m.set(3, 3, Complex::ONE);
    m
}

/// Conjugates a 4×4 gate by SWAP (exchanging the roles of its two bits).
fn permute_2q(u: &Matrix) -> Matrix {
    let perm = |i: usize| ((i & 1) << 1) | ((i >> 1) & 1);
    let mut out = Matrix::zeros(4, 4);
    for r in 0..4 {
        for c in 0..4 {
            out.set(perm(r), perm(c), u.get(r, c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_array::StateVector;
    use qdt_circuit::generators;
    use qdt_complex::FRAC_1_SQRT_2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_matches_array(qc: &Circuit, chi: usize, tol: f64) {
        let mps = Mps::from_circuit(qc, chi).unwrap();
        let expect = StateVector::from_circuit(qc).unwrap();
        let dense = mps.to_statevector();
        let mut fid = Complex::ZERO;
        for (a, b) in dense.iter().zip(expect.amplitudes()) {
            fid += a.conj() * *b;
        }
        assert!(
            (fid.norm_sqr() - 1.0).abs() < tol,
            "fidelity {} for {qc}",
            fid.norm_sqr()
        );
    }

    #[test]
    fn bell_state_exact_with_chi_2() {
        let mps = Mps::from_circuit(&generators::bell(), 2).unwrap();
        assert!((mps.amplitude(0b00).re - FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((mps.amplitude(0b11).re - FRAC_1_SQRT_2).abs() < 1e-12);
        assert!(mps.amplitude(0b01).abs() < 1e-12);
        assert!(mps.truncation_error() < 1e-15);
    }

    #[test]
    fn ghz_is_exact_with_chi_2() {
        assert_matches_array(&generators::ghz(8), 2, 1e-9);
        let mps = Mps::from_circuit(&generators::ghz(50), 2).unwrap();
        assert_eq!(mps.max_observed_bond(), 2);
        assert!((mps.amplitude((1u128 << 50) - 1).re - FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn w_state_matches_array() {
        assert_matches_array(&generators::w_state(6), 4, 1e-9);
    }

    #[test]
    fn qft_matches_array_with_generous_bond() {
        assert_matches_array(&generators::qft(5, true), 32, 1e-8);
    }

    #[test]
    fn random_circuit_exact_with_full_bond() {
        let mut rng = StdRng::seed_from_u64(41);
        let qc = generators::random_circuit(5, 4, &mut rng);
        assert_matches_array(&qc, 32, 1e-8);
    }

    #[test]
    fn non_adjacent_gates_routed() {
        let mut qc = Circuit::new(4);
        qc.h(0).cx(0, 3); // long-range CNOT
        assert_matches_array(&qc, 4, 1e-9);
    }

    #[test]
    fn truncation_error_grows_when_capped() {
        let mut rng = StdRng::seed_from_u64(42);
        let qc = generators::random_circuit(8, 6, &mut rng);
        let exact = Mps::from_circuit(&qc, 64).unwrap();
        let capped = Mps::from_circuit(&qc, 2).unwrap();
        assert!(exact.truncation_error() < 1e-9);
        assert!(
            capped.truncation_error() > 1e-4,
            "χ=2 on a random circuit must truncate (err={})",
            capped.truncation_error()
        );
    }

    #[test]
    fn capped_fidelity_improves_with_chi() {
        let mut rng = StdRng::seed_from_u64(43);
        let qc = generators::random_circuit(7, 5, &mut rng);
        let expect = StateVector::from_circuit(&qc).unwrap();
        let mut last_fid = -1.0;
        for chi in [1, 2, 4, 16, 64] {
            let mps = Mps::from_circuit(&qc, chi).unwrap();
            let dense = mps.to_statevector();
            let mut fid = Complex::ZERO;
            for (a, b) in dense.iter().zip(expect.amplitudes()) {
                fid += a.conj() * *b;
            }
            let f = fid.norm_sqr();
            assert!(
                f >= last_fid - 0.05,
                "fidelity should broadly improve with χ: {f} after {last_fid}"
            );
            last_fid = f;
        }
        assert!(last_fid > 0.999, "χ=64 must be exact, got {last_fid}");
    }

    #[test]
    fn norm_stays_one() {
        let mut rng = StdRng::seed_from_u64(44);
        let qc = generators::random_circuit(6, 5, &mut rng);
        for chi in [2, 8, 64] {
            let mps = Mps::from_circuit(&qc, chi).unwrap();
            assert!(
                (mps.norm_sqr() - 1.0).abs() < 1e-8,
                "χ={chi} norm {}",
                mps.norm_sqr()
            );
        }
    }

    #[test]
    fn memory_is_linear_for_bounded_bond() {
        let m20 = Mps::from_circuit(&generators::ghz(20), 2)
            .unwrap()
            .memory_entries();
        let m40 = Mps::from_circuit(&generators::ghz(40), 2)
            .unwrap()
            .memory_entries();
        assert!(m40 <= m20 * 3, "MPS memory must grow linearly");
    }

    #[test]
    fn rejects_three_qubit_gates() {
        let mut qc = Circuit::new(3);
        qc.ccx(0, 1, 2);
        assert!(matches!(
            Mps::from_circuit(&qc, 8),
            Err(TensorError::NonUnitary { .. })
        ));
    }

    use qdt_circuit::Circuit;
}

impl Mps {
    /// The expectation value `⟨ψ|P|ψ⟩` of a Pauli string, contracted
    /// through the chain in `O(n·χ³)` without expanding the state.
    ///
    /// # Panics
    ///
    /// Panics if the string's width differs from the chain's.
    pub fn expectation_pauli(&self, pauli: &qdt_circuit::PauliString) -> f64 {
        assert_eq!(
            pauli.num_qubits(),
            self.num_qubits(),
            "Pauli width mismatch"
        );
        // env[l·L + l'] carries ⟨ψ| … |ψ⟩ up to the current site, with
        // l the bra bond and l' the ket bond.
        let mut env = vec![Complex::ONE];
        let mut dim = 1usize;
        for (q, site) in self.sites.iter().enumerate() {
            let p = pauli.op(q).matrix();
            let (l, r) = (site.left, site.right);
            debug_assert_eq!(dim, l);
            let mut next = vec![Complex::ZERO; r * r];
            for li in 0..l {
                for lj in 0..l {
                    let e = env[li * l + lj];
                    if e == Complex::ZERO {
                        continue;
                    }
                    for sp in 0..2 {
                        for s in 0..2 {
                            let pv = p.get(sp, s);
                            if pv == Complex::ZERO {
                                continue;
                            }
                            for ri in 0..r {
                                let bra = site.get(li, sp, ri).conj();
                                if bra == Complex::ZERO {
                                    continue;
                                }
                                for rj in 0..r {
                                    next[ri * r + rj] += e * bra * pv * site.get(lj, s, rj);
                                }
                            }
                        }
                    }
                }
            }
            env = next;
            dim = r;
        }
        env[0].re
    }
}

#[cfg(test)]
mod pauli_tests {
    use super::*;
    use qdt_array::StateVector;
    use qdt_circuit::{generators, PauliString};

    #[test]
    fn mps_expectations_match_array() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(10);
        let qc = generators::random_circuit(4, 3, &mut rng);
        let psi = StateVector::from_circuit(&qc).unwrap();
        let mps = Mps::from_circuit(&qc, 32).unwrap();
        for s in ["ZIII", "XXII", "YZXI", "ZZZZ", "IIII"] {
            let p: PauliString = s.parse().unwrap();
            let a = psi.expectation_pauli(&p);
            let m = mps.expectation_pauli(&p);
            assert!((a - m).abs() < 1e-8, "{s}: array {a} vs mps {m}");
        }
    }

    #[test]
    fn ghz_stabilizer_at_width_48() {
        let mps = Mps::from_circuit(&generators::ghz(48), 2).unwrap();
        let all_x: PauliString = "X".repeat(48).parse().unwrap();
        assert!((mps.expectation_pauli(&all_x) - 1.0).abs() < 1e-8);
        let single_z: PauliString = ("Z".to_string() + &"I".repeat(47)).parse().unwrap();
        assert!(mps.expectation_pauli(&single_z).abs() < 1e-8);
    }

    #[cfg(feature = "audit")]
    mod audit {
        use super::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        #[test]
        fn clean_chain_passes_audit() {
            let mut rng = StdRng::seed_from_u64(7);
            let qc = generators::random_circuit(6, 8, &mut rng);
            let mps = Mps::from_circuit(&qc, 8).unwrap();
            assert_eq!(mps.audit(), Ok(()));
        }

        #[test]
        fn broken_bond_is_detected() {
            let mut mps = Mps::from_circuit(&generators::ghz(4), 4).unwrap();
            assert_eq!(mps.audit(), Ok(()));
            // Sabotage the chain: claim a different bond dimension
            // without resizing the neighbour.
            mps.sites[1].right += 1;
            let violations = mps.audit().expect_err("bond break must be caught");
            assert!(!violations.is_empty());
        }
    }
}
