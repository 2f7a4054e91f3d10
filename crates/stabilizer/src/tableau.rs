//! The bit-packed Aaronson–Gottesman tableau.
//!
//! A stabilizer state on `n` qubits is represented by `2n` Pauli
//! generators: rows `0..n` are *destabilizers*, rows `n..2n` are
//! *stabilizers*, and one extra scratch row serves the measurement
//! algorithm. Each row holds its X and Z binary vectors bit-packed into
//! `u64` words plus one sign bit, so a row with bits `(x, z)` and sign
//! `r` represents the Pauli `(−1)^r · i^{|x∧z|} · X^x Z^z` (i.e. `Y`
//! where both bits are set).
//!
//! The X and Z matrices live in one of two layouts (DESIGN.md §14):
//!
//! * **rows** — row `r`'s words are contiguous, so row multiplication
//!   ([`rowsum_words`]) XORs `⌈n/64⌉` words and the `i`-power
//!   bookkeeping of the Aaronson–Gottesman `g` function reduces to two
//!   popcounts per word. Measurement, expectation values and the
//!   canonical form work here;
//! * **columns** — every 64×64 bit block is transposed in place, so the
//!   X (or Z) bits of one qubit over all `2n` rows are `⌈2n/64⌉` words
//!   and a Clifford gate is a word sweep over one or two such columns.
//!
//! Each operation switches to the layout it needs, lazily: a run of
//! gates pays at most one switch in and one out. The signs are a bit
//! column in both layouts, and the scratch row lives outside the
//! transposed matrices.

use qdt_parallel::{KernelContext, SharedSlice};

/// The image of a single Pauli under conjugation by a Clifford gate:
/// a signed Pauli given by its X/Z bits and a sign flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauliImage {
    /// X bit of the image Pauli.
    pub x: bool,
    /// Z bit of the image Pauli.
    pub z: bool,
    /// Whether the image carries a −1 sign.
    pub neg: bool,
}

/// How a single-qubit Clifford gate conjugates the three non-identity
/// Paulis — the whole tableau update rule for that gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleLut {
    /// Image of `X` under `U · U†`.
    pub on_x: PauliImage,
    /// Image of `Z`.
    pub on_z: PauliImage,
    /// Image of `Y`.
    pub on_y: PauliImage,
}

/// What measuring a qubit in the computational basis will do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureKind {
    /// The outcome is a fair coin; `pivot` is the stabilizer row whose
    /// X bit anticommutes with the measurement.
    Random {
        /// Index (in `n..2n`) of the anticommuting stabilizer row.
        pivot: usize,
    },
    /// The outcome is determined; the payload is the forced bit.
    Determined(bool),
}

/// The canonical (reduced-echelon) form of the stabilizer group, from
/// which sampling and amplitude queries are answered in `O(k·n/64)`
/// per shot instead of `O(n³/64)` (DESIGN.md §14).
///
/// The computational-basis support of a stabilizer state is the affine
/// space `v0 ⊕ span{x-parts of the k X-pivot generators}`, each basis
/// state carrying probability `2^{−k}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canonical {
    /// Reduced-echelon generators with an X pivot, ascending pivot column.
    pivots: Vec<PivotRow>,
    /// Pure-Z generators `(z, r)`: every supported outcome `m` satisfies
    /// `z·m ≡ r (mod 2)`.
    zrows: Vec<(Vec<u64>, u8)>,
    /// Anchor outcome: the support member with zeros on all free columns.
    v0: Vec<u64>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PivotRow {
    col: usize,
    x: Vec<u64>,
    z: Vec<u64>,
    r: u8,
}

impl Canonical {
    /// The X-rank `k`: the support holds `2^k` basis states.
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }

    /// The anchor outcome `v0` (bit-packed).
    pub fn anchor(&self) -> &[u64] {
        &self.v0
    }

    /// Draws one measurement outcome of the full register: the anchor
    /// XOR a uniformly random subset of the `k` pivot X-parts. Consumes
    /// exactly `k` boolean draws from `rng` in pivot order.
    pub fn sample_into(&self, out: &mut [u64], rng: &mut dyn rand::RngCore) {
        use rand::Rng;
        out.copy_from_slice(&self.v0);
        for p in &self.pivots {
            if rng.gen_bool(0.5) {
                for (o, b) in out.iter_mut().zip(&p.x) {
                    *o ^= *b;
                }
            }
        }
    }

    /// Writes the support member selected by `mask` into `out`: the
    /// anchor XOR the pivot X-parts whose bits are set in `mask`. With
    /// `mask` ranging over `0..2^k` this enumerates the whole support.
    pub fn member(&self, mask: u64, out: &mut [u64]) {
        out.copy_from_slice(&self.v0);
        for (j, p) in self.pivots.iter().enumerate() {
            if mask >> j & 1 == 1 {
                for (o, b) in out.iter_mut().zip(&p.x) {
                    *o ^= *b;
                }
            }
        }
    }

    /// Whether outcome `m` lies in the support of the state.
    pub fn supports(&self, m: &[u64]) -> bool {
        self.zrows.iter().all(|(z, r)| {
            let parity = z
                .iter()
                .zip(m)
                .fold(0u32, |acc, (a, b)| acc ^ (a & b).count_ones())
                & 1;
            parity as u8 == *r
        })
    }

    /// `⟨m|ψ⟩` as `(i_power mod 4, k)` meaning `i^{i_power} · 2^{−k/2}`,
    /// or `None` when the amplitude is zero.
    ///
    /// The global phase is fixed so that `⟨v0|ψ⟩ = 2^{−k/2}` is positive
    /// real; engines compare amplitudes up to global phase anyway.
    pub fn amplitude(&self, m: &[u64]) -> Option<(u8, usize)> {
        if !self.supports(m) {
            return None;
        }
        // Walk from the anchor to `m` one pivot generator at a time.
        // Applying stabilizer S = (−1)^r i^{|x∧z|} X^x Z^z to ⟨cur|
        // gives ⟨cur ⊕ x|ψ⟩ = (−1)^r i^{|x∧z|} (−1)^{|z∧cur|} ⟨cur|ψ⟩.
        let mut cur = self.v0.clone();
        let mut ipow: u32 = 0;
        for p in &self.pivots {
            let (wq, bq) = (p.col / 64, 1u64 << (p.col % 64));
            if (m[wq] ^ cur[wq]) & bq == 0 {
                continue;
            }
            let xz: u32 =
                p.x.iter()
                    .zip(&p.z)
                    .map(|(a, b)| (a & b).count_ones())
                    .sum();
            let zm: u32 =
                p.z.iter()
                    .zip(&cur)
                    .map(|(a, b)| (a & b).count_ones())
                    .sum();
            ipow += 2 * u32::from(p.r) + xz + 2 * zm;
            for (c, b) in cur.iter_mut().zip(&p.x) {
                *c ^= *b;
            }
        }
        debug_assert_eq!(cur, m, "anchor walk must land on the queried outcome");
        Some(((ipow % 4) as u8, self.pivots.len()))
    }
}

/// Which way the X and Z matrices are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Row `r`, word `j` at `r·w + j`.
    Rows,
    /// Every 64×64 block transposed: qubit `c`'s word for rows
    /// `64i..64i+64` at `(64i + c mod 64)·w + c/64`.
    Columns,
}

/// The 2n×2n destabilizer/stabilizer tableau with bit-packed rows or
/// columns (see the module docs).
#[derive(Debug, Clone)]
pub struct Tableau {
    n: usize,
    /// Words per row: `⌈n/64⌉`, the number of 64-qubit block columns.
    w: usize,
    /// 64-row block rows: `⌈2n/64⌉`, the words of one bit column.
    rb: usize,
    /// X bits of `64·rb` rows (rows `2n..` stay zero), `w` words each,
    /// in `layout`.
    x: Vec<u64>,
    /// Z bits, same shape and layout.
    z: Vec<u64>,
    /// Sign bits: row `r` is bit `r mod 64` of word `r/64`.
    r: Vec<u64>,
    layout: Layout,
    /// Layout switches since [`Tableau::new`].
    switches: u64,
    /// The scratch row's X and Z words (its sign is a local of each
    /// query that uses it).
    scratch_x: Vec<u64>,
    scratch_z: Vec<u64>,
}

impl Tableau {
    /// The identity tableau of the all-zeros state: destabilizer `i` is
    /// `X_i`, stabilizer `i` is `Z_i`. It starts in the column layout,
    /// ready for a run of gates.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "tableau needs at least one qubit");
        let w = n.div_ceil(64);
        let rb = (2 * n).div_ceil(64);
        let mut t = Tableau {
            n,
            w,
            rb,
            x: vec![0; 64 * rb * w],
            z: vec![0; 64 * rb * w],
            r: vec![0; rb],
            layout: Layout::Columns,
            switches: 0,
            scratch_x: vec![0; w],
            scratch_z: vec![0; w],
        };
        for i in 0..n {
            let (at, bit) = t.locate(i, i);
            t.x[at] |= bit; // destabilizer X_i
            let (at, bit) = t.locate(n + i, i);
            t.z[at] |= bit; // stabilizer Z_i
        }
        t
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Words per row half (`⌈n/64⌉`).
    pub fn words_per_row(&self) -> usize {
        self.w
    }

    /// `u64` words of the logical X and Z matrices, scratch row
    /// included: `2·(2n+1)·⌈n/64⌉` — the engine's cost metric.
    pub fn total_words(&self) -> usize {
        2 * (2 * self.n + 1) * self.w
    }

    /// `u64` words actually held: the X and Z matrices padded to whole
    /// 64-row blocks, the sign column and the scratch row.
    pub fn storage_words(&self) -> usize {
        self.x.len() + self.z.len() + self.r.len() + self.scratch_x.len() + self.scratch_z.len()
    }

    /// How many times the matrices switched layout since
    /// [`Tableau::new`].
    pub fn layout_switches(&self) -> u64 {
        self.switches
    }

    /// Word index and bit mask of entry `(row, q)` in the current layout.
    #[inline]
    fn locate(&self, row: usize, q: usize) -> (usize, u64) {
        debug_assert!(row < 2 * self.n && q < self.n);
        match self.layout {
            Layout::Rows => (row * self.w + q / 64, 1u64 << (q % 64)),
            Layout::Columns => ((row & !63 | (q % 64)) * self.w + q / 64, 1u64 << (row % 64)),
        }
    }

    /// X bit of `row` (in `0..2n`) at qubit `q`.
    pub fn x_bit(&self, row: usize, q: usize) -> bool {
        let (at, bit) = self.locate(row, q);
        self.x[at] & bit != 0
    }

    /// Z bit of `row` (in `0..2n`) at qubit `q`.
    pub fn z_bit(&self, row: usize, q: usize) -> bool {
        let (at, bit) = self.locate(row, q);
        self.z[at] & bit != 0
    }

    /// Sign bit of `row` (in `0..2n`).
    pub fn sign(&self, row: usize) -> u8 {
        (self.r[row / 64] >> (row % 64) & 1) as u8
    }

    fn set_sign(&mut self, row: usize, bit: u8) {
        let mask = 1u64 << (row % 64);
        let word = &mut self.r[row / 64];
        *word = (*word & !mask) | (u64::from(bit) << (row % 64));
    }

    // --- layouts -------------------------------------------------------------

    fn ensure_rows(&mut self, ctx: &KernelContext) {
        if self.layout == Layout::Columns {
            self.transpose_blocks(ctx);
            self.layout = Layout::Rows;
        }
    }

    fn ensure_columns(&mut self, ctx: &KernelContext) {
        if self.layout == Layout::Rows {
            self.transpose_blocks(ctx);
            self.layout = Layout::Columns;
        }
    }

    /// Transposes every 64×64 block of X and Z in place — the switch
    /// between the two layouts, either way. Block row `i` (rows
    /// `64i..64i+64`) is `64·w` contiguous words, and its `w` blocks are
    /// the word columns of that stretch, so each work item owns its
    /// block row outright and any thread count is bit-identical.
    fn transpose_blocks(&mut self, ctx: &KernelContext) {
        let w = self.w;
        let xs = SharedSlice::new(&mut self.x);
        let zs = SharedSlice::new(&mut self.z);
        ctx.run(self.rb, 64 * w, &|range| {
            for i in range {
                for s in [xs, zs] {
                    // SAFETY: `i < rb`, so words 64·i·w..64·(i+1)·w lie
                    // inside the 64·rb·w-word matrix, and block row `i`
                    // is owned by exactly one chunk.
                    #[allow(unsafe_code)]
                    let stretch = unsafe {
                        std::slice::from_raw_parts_mut(s.as_mut_ptr().add(64 * i * w), 64 * w)
                    };
                    let mut block = [0u64; 64];
                    for j in 0..w {
                        for (k, word) in block.iter_mut().enumerate() {
                            *word = stretch[k * w + j];
                        }
                        transpose64(&mut block);
                        for (k, word) in block.iter().enumerate() {
                            stretch[k * w + j] = *word;
                        }
                    }
                }
            }
        });
        self.switches += 1;
    }

    // --- gates ---------------------------------------------------------------

    /// Conjugates the tableau by a single-qubit Clifford described by
    /// its Pauli images: one sweep over the qubit's X and Z columns and
    /// the sign column, each bit picking its image by mask. Returns the
    /// number of logical rows updated (`2n`, for telemetry).
    ///
    /// The sweep runs inline: a column is at most a few hundred words,
    /// less than a pool dispatch costs. `ctx` schedules the layout
    /// switch, if one is due.
    pub fn apply_single(&mut self, q: usize, lut: SingleLut, ctx: &KernelContext) -> u64 {
        self.ensure_columns(ctx);
        let sel = |b: bool| 0u64.wrapping_sub(u64::from(b));
        let [on_x, on_z, on_y] = [lut.on_x, lut.on_z, lut.on_y];
        let (xx, xz, xy) = (sel(on_x.x), sel(on_z.x), sel(on_y.x));
        let (zx, zz, zy) = (sel(on_x.z), sel(on_z.z), sel(on_y.z));
        let (nx, nz, ny) = (sel(on_x.neg), sel(on_z.neg), sel(on_y.neg));
        let (base, stride) = self.column(q);
        for (i, sign) in self.r.iter_mut().enumerate() {
            let at = base + i * stride;
            let (xw, zw) = (self.x[at], self.z[at]);
            // Rows holding X, Z and Y at `q`; identity rows stay put.
            let (px, pz, py) = (xw & !zw, !xw & zw, xw & zw);
            self.x[at] = (px & xx) | (pz & xz) | (py & xy);
            self.z[at] = (px & zx) | (pz & zz) | (py & zy);
            *sign ^= (px & nx) | (pz & nz) | (py & ny);
        }
        (2 * self.n) as u64
    }

    /// Conjugates by CX with control `c` and target `t`:
    /// `x_t ^= x_c`, `z_c ^= z_t`, `r ^= x_c z_t (x_t ⊕ z_c ⊕ 1)`.
    pub fn apply_cx(&mut self, c: usize, t: usize, ctx: &KernelContext) -> u64 {
        self.two_qubit(c, t, ctx, |xc, zc, xt, zt| {
            let flip = xc & zt & !(xt ^ zc);
            (xc, zc ^ zt, xt ^ xc, zt, flip)
        })
    }

    /// Conjugates by CZ: `z_c ^= x_t`, `z_t ^= x_c`,
    /// `r ^= x_c x_t (z_c ⊕ z_t)`.
    pub fn apply_cz(&mut self, c: usize, t: usize, ctx: &KernelContext) -> u64 {
        self.two_qubit(c, t, ctx, |xc, zc, xt, zt| {
            let flip = xc & xt & (zc ^ zt);
            (xc, zc ^ xt, xt, zt ^ xc, flip)
        })
    }

    /// Conjugates by SWAP: exchanges the two bit columns (no signs).
    pub fn apply_swap(&mut self, a: usize, b: usize, ctx: &KernelContext) -> u64 {
        self.two_qubit(a, b, ctx, |xa, za, xb, zb| (xb, zb, xa, za, 0))
    }

    /// Shared column sweep for two-qubit updates: `f(x_a, z_a, x_b,
    /// z_b)` maps 64 rows' words to `(x_a', z_a', x_b', z_b',
    /// sign_flips)`. Every formula sends all-zero rows to all-zero rows
    /// without a flip, so the padding rows stay clear.
    fn two_qubit(
        &mut self,
        a: usize,
        b: usize,
        ctx: &KernelContext,
        f: impl Fn(u64, u64, u64, u64) -> (u64, u64, u64, u64, u64),
    ) -> u64 {
        assert_ne!(a, b, "two-qubit update needs distinct qubits");
        self.ensure_columns(ctx);
        let (base_a, stride) = self.column(a);
        let (base_b, _) = self.column(b);
        for (i, sign) in self.r.iter_mut().enumerate() {
            let (ia, ib) = (base_a + i * stride, base_b + i * stride);
            let (xa, za, xb, zb, flip) = f(self.x[ia], self.z[ia], self.x[ib], self.z[ib]);
            self.x[ia] = xa;
            self.z[ia] = za;
            self.x[ib] = xb;
            self.z[ib] = zb;
            *sign ^= flip;
        }
        (2 * self.n) as u64
    }

    /// Index of qubit `q`'s first column word and the stride between
    /// its words, in the column layout.
    fn column(&self, q: usize) -> (usize, usize) {
        debug_assert!(self.layout == Layout::Columns && q < self.n);
        ((q % 64) * self.w + q / 64, 64 * self.w)
    }

    // --- row multiplication --------------------------------------------------

    /// The scratch row, whose sign is `sr`, becomes its product with
    /// row `i` (row layout only).
    fn scratch_mul(&mut self, i: usize, sr: &mut u8) {
        let w = self.w;
        let ri = self.sign(i);
        rowsum_words(
            &mut self.scratch_x,
            &mut self.scratch_z,
            sr,
            &self.x[i * w..(i + 1) * w],
            &self.z[i * w..(i + 1) * w],
            ri,
        );
    }

    // --- measurement ---------------------------------------------------------

    /// Classifies a computational-basis measurement of qubit `q`.
    ///
    /// A stabilizer row with the X bit set at `q` anticommutes with
    /// `Z_q` — the outcome is a fair coin. Otherwise the outcome is the
    /// sign of the product of the stabilizer rows indicated by the
    /// destabilizer X bits, accumulated into the scratch row. Returns
    /// the classification plus the number of rowsums performed.
    pub fn measure_kind(&mut self, q: usize, ctx: &KernelContext) -> (MeasureKind, u64) {
        self.ensure_rows(ctx);
        let n = self.n;
        for p in n..2 * n {
            if self.x_bit(p, q) {
                return (MeasureKind::Random { pivot: p }, 0);
            }
        }
        // Deterministic: scratch ← Π { stabilizer i+n : destabilizer i
        // has the X bit at q }.
        self.scratch_x.fill(0);
        self.scratch_z.fill(0);
        let mut sr = 0;
        let mut rowsums = 0;
        for i in 0..n {
            if self.x_bit(i, q) {
                self.scratch_mul(n + i, &mut sr);
                rowsums += 1;
            }
        }
        (MeasureKind::Determined(sr == 1), rowsums)
    }

    /// Collapses qubit `q` after a random measurement with pivot row
    /// `p` and chosen `outcome`: every other row whose X bit at `q` is
    /// set is multiplied by the pivot row in place (parallelized over
    /// 64-row blocks, which own their sign word — disjoint writes,
    /// bit-identical at any thread count), the pivot is demoted to the
    /// destabilizer bank, and the fresh stabilizer `±Z_q` takes its
    /// place. Returns the number of rowsums.
    pub fn project_random(
        &mut self,
        q: usize,
        p: usize,
        outcome: bool,
        ctx: &KernelContext,
    ) -> u64 {
        self.ensure_rows(ctx);
        let n = self.n;
        let w = self.w;
        let (wq, bq) = (q / 64, 1u64 << (q % 64));
        debug_assert!(self.x_bit(p, q), "pivot row must anticommute with Z_q");
        // Snapshot the pivot row so the parallel pass reads a stable copy.
        let xp: Vec<u64> = self.x[p * w..(p + 1) * w].to_vec();
        let zp: Vec<u64> = self.z[p * w..(p + 1) * w].to_vec();
        let rp = self.sign(p);
        let rows = 2 * n;
        let rowsums = (0..rows)
            .filter(|&i| i != p && self.x[i * w + wq] & bq != 0)
            .count() as u64;
        {
            let xs = SharedSlice::new(&mut self.x);
            let zs = SharedSlice::new(&mut self.z);
            let rs = SharedSlice::new(&mut self.r);
            let (xp, zp) = (&xp, &zp);
            ctx.run(self.rb, 64 * w, &|range| {
                for blk in range {
                    // SAFETY: block `blk` (rows 64·blk..64·blk+64 and
                    // sign word `blk`) is owned by exactly one chunk;
                    // the pivot row is only read through its snapshot.
                    #[allow(unsafe_code)]
                    unsafe {
                        let mut signs = rs.get(blk);
                        for i in 64 * blk..rows.min(64 * blk + 64) {
                            if i == p || xs.get(i * w + wq) & bq == 0 {
                                continue;
                            }
                            let xh = std::slice::from_raw_parts_mut(xs.as_mut_ptr().add(i * w), w);
                            let zh = std::slice::from_raw_parts_mut(zs.as_mut_ptr().add(i * w), w);
                            let mut rh = (signs >> (i % 64) & 1) as u8;
                            rowsum_words(xh, zh, &mut rh, xp, zp, rp);
                            signs = (signs & !(1u64 << (i % 64))) | (u64::from(rh) << (i % 64));
                        }
                        rs.set(blk, signs);
                    }
                }
            });
        }
        // Demote the pivot to its destabilizer slot and install ±Z_q.
        let d = p - n;
        self.x.copy_within(p * w..(p + 1) * w, d * w);
        self.z.copy_within(p * w..(p + 1) * w, d * w);
        self.set_sign(d, rp);
        self.x[p * w..(p + 1) * w].fill(0);
        self.z[p * w..(p + 1) * w].fill(0);
        self.z[p * w + wq] = bq;
        self.set_sign(p, u8::from(outcome));
        rowsums
    }

    // --- observables ---------------------------------------------------------

    /// `⟨ψ| P |ψ⟩` for the bare Pauli with bit masks `(px, pz)`:
    /// `0` when `P` anticommutes with some stabilizer, else `±1` from
    /// the sign of `P` as a product of generators. Returns the value
    /// and the rowsums performed.
    pub fn expectation(&mut self, px: &[u64], pz: &[u64], ctx: &KernelContext) -> (i8, u64) {
        self.ensure_rows(ctx);
        let n = self.n;
        let w = self.w;
        debug_assert_eq!(px.len(), w);
        let anticommutes = |this: &Tableau, row: usize| -> bool {
            let base = row * w;
            let parity = (0..w).fold(0u32, |acc, k| {
                acc ^ (this.x[base + k] & pz[k]).count_ones()
                    ^ (this.z[base + k] & px[k]).count_ones()
            });
            parity & 1 == 1
        };
        for row in n..2 * n {
            if anticommutes(self, row) {
                return (0, 0);
            }
        }
        // P commutes with the whole group, so P = ±Π s_i over the
        // generators whose destabilizers anticommute with P.
        self.scratch_x.fill(0);
        self.scratch_z.fill(0);
        let mut sr = 0;
        let mut rowsums = 0;
        for i in 0..n {
            if anticommutes(self, i) {
                self.scratch_mul(n + i, &mut sr);
                rowsums += 1;
            }
        }
        debug_assert!(
            self.scratch_x == px && self.scratch_z == pz,
            "a commuting Pauli must reduce to a generator product"
        );
        (if sr == 1 { -1 } else { 1 }, rowsums)
    }

    // --- canonical form ------------------------------------------------------

    /// Reduces the stabilizer half to the canonical form used by the
    /// global sampler and amplitude queries. `O(n³/64)` once; the
    /// returned [`Canonical`] answers each query in `O(k·n/64)`.
    pub fn canonicalize(&mut self, ctx: &KernelContext) -> Canonical {
        self.ensure_rows(ctx);
        let n = self.n;
        let w = self.w;
        // Working copy of the stabilizer rows.
        let mut rx: Vec<Vec<u64>> = (0..n)
            .map(|i| self.x[(n + i) * w..(n + i + 1) * w].to_vec())
            .collect();
        let mut rz: Vec<Vec<u64>> = (0..n)
            .map(|i| self.z[(n + i) * w..(n + i + 1) * w].to_vec())
            .collect();
        let mut rr: Vec<u8> = (0..n).map(|i| self.sign(n + i)).collect();

        let mut pivots = Vec::new();
        let mut next = 0usize;
        for col in 0..n {
            let (wq, bq) = (col / 64, 1u64 << (col % 64));
            let Some(hit) = (next..n).find(|&i| rx[i][wq] & bq != 0) else {
                continue;
            };
            rx.swap(next, hit);
            rz.swap(next, hit);
            rr.swap(next, hit);
            let (px, pz, pr) = (rx[next].clone(), rz[next].clone(), rr[next]);
            for i in 0..n {
                if i != next && rx[i][wq] & bq != 0 {
                    rowsum_words(&mut rx[i], &mut rz[i], &mut rr[i], &px, &pz, pr);
                }
            }
            pivots.push((col, next));
            next += 1;
        }
        let k = next;
        let pivot_rows: Vec<PivotRow> = pivots
            .iter()
            .map(|&(col, i)| PivotRow {
                col,
                x: rx[i].clone(),
                z: rz[i].clone(),
                r: rr[i],
            })
            .collect();

        // Rows k..n are pure-Z constraints; Gauss–Jordan over their Z
        // bits (plain XOR — Z-type rows multiply without i factors)
        // yields the anchor v0 with free columns zeroed.
        let mut cz: Vec<Vec<u64>> = (k..n).map(|i| rz[i].clone()).collect();
        let mut cr: Vec<u8> = (k..n).map(|i| rr[i]).collect();
        debug_assert!((k..n).all(|i| rx[i].iter().all(|&b| b == 0)));
        let mut v0 = vec![0u64; w];
        let mut zpivots: Vec<(usize, usize)> = Vec::new();
        for col in 0..n {
            let (wq, bq) = (col / 64, 1u64 << (col % 64));
            let zpiv = zpivots.len();
            let Some(hit) = (zpiv..cz.len()).find(|&i| cz[i][wq] & bq != 0) else {
                continue;
            };
            cz.swap(zpiv, hit);
            cr.swap(zpiv, hit);
            let (pz, pr) = (cz[zpiv].clone(), cr[zpiv]);
            for i in 0..cz.len() {
                if i != zpiv && cz[i][wq] & bq != 0 {
                    for (a, b) in cz[i].iter_mut().zip(&pz) {
                        *a ^= *b;
                    }
                    cr[i] ^= pr;
                }
            }
            zpivots.push((col, zpiv));
        }
        debug_assert_eq!(zpivots.len(), n - k, "stabilizer rank must be n");
        // Signs are only final once every column is eliminated: a later
        // column's elimination may flip an earlier pivot row's sign.
        for &(col, row) in &zpivots {
            if cr[row] == 1 {
                v0[col / 64] |= 1u64 << (col % 64);
            }
        }

        Canonical {
            pivots: pivot_rows,
            zrows: cz.into_iter().zip(cr).collect(),
            v0,
        }
    }
}

/// Two tableaux are equal when rows `0..2n` agree in every X, Z and sign
/// bit, whatever layout each is in (the scratch row holds no state).
impl PartialEq for Tableau {
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n {
            return false;
        }
        if self.layout == other.layout {
            // Padding rows and columns are zero in both.
            return self.x == other.x && self.z == other.z && self.r == other.r;
        }
        (0..2 * self.n).all(|row| {
            self.sign(row) == other.sign(row)
                && (0..self.n).all(|q| {
                    self.x_bit(row, q) == other.x_bit(row, q)
                        && self.z_bit(row, q) == other.z_bit(row, q)
                })
        })
    }
}

impl Eq for Tableau {}

/// Transposes a 64×64 bit matrix in place: bit `b` of word `k` trades
/// places with bit `k` of word `b`. Six rounds, `j = 32, 16, …, 1`,
/// each swapping the off-diagonal `j×j` sub-blocks of every `2j×2j`
/// block between words `j` apart.
fn transpose64(a: &mut [u64; 64]) {
    const MASKS: [u64; 6] = [
        0x0000_0000_FFFF_FFFF,
        0x0000_FFFF_0000_FFFF,
        0x00FF_00FF_00FF_00FF,
        0x0F0F_0F0F_0F0F_0F0F,
        0x3333_3333_3333_3333,
        0x5555_5555_5555_5555,
    ];
    let mut j = 32;
    for m in MASKS {
        for base in (0..64).step_by(2 * j) {
            for k in base..base + j {
                let t = ((a[k] >> j) ^ a[k + j]) & m;
                a[k] ^= t << j;
                a[k + j] ^= t;
            }
        }
        j /= 2;
    }
}

/// The word-parallel core of `rowsum`: destination row `(xh, zh, rh)`
/// becomes its product with source row `(xi, zi, ri)`.
///
/// The Aaronson–Gottesman `g` function contributes `+1`/`−1` per qubit
/// from fixed bit patterns, so the mod-4 `i`-power sum is two popcounts
/// per word. For commuting rows (every stabilizer–stabilizer product)
/// the total is provably even and the destination sign is whether it
/// lands on 2 (mod 4). The random-measurement update also multiplies
/// *destabilizer* rows by the pivot, and those may anticommute: the
/// product then carries a factor `i` (odd total) that a {+1, −1} sign
/// bit cannot represent. Destabilizer phases are never observable — no
/// outcome, amplitude, or canonical form reads them — so the odd case
/// deterministically truncates to "not 2 (mod 4)", exactly like the
/// reference CHP implementation.
pub(crate) fn rowsum_words(
    xh: &mut [u64],
    zh: &mut [u64],
    rh: &mut u8,
    xi: &[u64],
    zi: &[u64],
    ri: u8,
) {
    let mut plus: u64 = 0;
    let mut minus: u64 = 0;
    for k in 0..xh.len() {
        let (x1, z1) = (xi[k], zi[k]);
        let (x2, z2) = (xh[k], zh[k]);
        let pos = (x1 & z1 & !x2 & z2) | (x1 & !z1 & x2 & z2) | (!x1 & z1 & x2 & !z2);
        let neg = (x1 & z1 & x2 & !z2) | (x1 & !z1 & !x2 & z2) | (!x1 & z1 & x2 & z2);
        plus += u64::from(pos.count_ones());
        minus += u64::from(neg.count_ones());
        xh[k] = x1 ^ x2;
        zh[k] = z1 ^ z2;
    }
    let total = 2 * i64::from(*rh) + 2 * i64::from(ri) + plus as i64 - minus as i64;
    *rh = u8::from(total.rem_euclid(4) == 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq() -> KernelContext {
        KernelContext::sequential()
    }

    /// H on qubit `q` (X↔Z swap) for tests.
    fn lut_h() -> SingleLut {
        SingleLut {
            on_x: PauliImage {
                x: false,
                z: true,
                neg: false,
            },
            on_z: PauliImage {
                x: true,
                z: false,
                neg: false,
            },
            on_y: PauliImage {
                x: true,
                z: true,
                neg: true,
            },
        }
    }

    /// S: X→Y, Z→Z, Y→−X.
    fn lut_s() -> SingleLut {
        SingleLut {
            on_x: PauliImage {
                x: true,
                z: true,
                neg: false,
            },
            on_z: PauliImage {
                x: false,
                z: true,
                neg: false,
            },
            on_y: PauliImage {
                x: true,
                z: false,
                neg: true,
            },
        }
    }

    #[test]
    fn identity_tableau_stabilizes_all_zeros() {
        let mut t = Tableau::new(3);
        for q in 0..3 {
            let (kind, _) = t.measure_kind(q, &seq());
            assert_eq!(kind, MeasureKind::Determined(false));
        }
    }

    #[test]
    fn hadamard_makes_measurement_random() {
        let mut t = Tableau::new(2);
        t.apply_single(0, lut_h(), &seq());
        let (kind, _) = t.measure_kind(0, &seq());
        assert!(matches!(kind, MeasureKind::Random { .. }));
        // Qubit 1 stays deterministic.
        let (kind, _) = t.measure_kind(1, &seq());
        assert_eq!(kind, MeasureKind::Determined(false));
    }

    #[test]
    fn ghz_collapse_is_correlated() {
        let mut t = Tableau::new(2);
        t.apply_single(0, lut_h(), &seq());
        t.apply_cx(0, 1, &seq());
        let (kind, _) = t.measure_kind(0, &seq());
        let MeasureKind::Random { pivot } = kind else {
            panic!("GHZ qubit must be random");
        };
        t.project_random(0, pivot, true, &seq());
        // After seeing |1⟩ on qubit 0, qubit 1 is forced to |1⟩.
        let (kind, _) = t.measure_kind(1, &seq());
        assert_eq!(kind, MeasureKind::Determined(true));
    }

    #[test]
    fn s_gate_phases_expectation() {
        // S|+⟩ has ⟨Y⟩ = +1, ⟨X⟩ = 0.
        let mut t = Tableau::new(1);
        t.apply_single(0, lut_h(), &seq());
        t.apply_single(0, lut_s(), &seq());
        let (y, _) = t.expectation(&[1], &[1], &seq());
        assert_eq!(y, 1);
        let (x, _) = t.expectation(&[1], &[0], &seq());
        assert_eq!(x, 0);
        let (z, _) = t.expectation(&[0], &[1], &seq());
        assert_eq!(z, 0);
    }

    #[test]
    fn cz_matches_h_cx_h() {
        // CZ built two ways must agree on the full tableau.
        let build = |direct: bool| {
            let mut t = Tableau::new(2);
            t.apply_single(0, lut_h(), &seq());
            t.apply_single(1, lut_s(), &seq());
            if direct {
                t.apply_cz(0, 1, &seq());
            } else {
                t.apply_single(1, lut_h(), &seq());
                t.apply_cx(0, 1, &seq());
                t.apply_single(1, lut_h(), &seq());
            }
            t
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn canonical_form_of_ghz() {
        let mut t = Tableau::new(3);
        t.apply_single(0, lut_h(), &seq());
        t.apply_cx(0, 1, &seq());
        t.apply_cx(1, 2, &seq());
        let canon = t.canonicalize(&seq());
        assert_eq!(canon.rank(), 1);
        assert_eq!(canon.anchor(), &[0]);
        assert!(canon.supports(&[0b111]));
        assert!(!canon.supports(&[0b101]));
        let (ipow, k) = canon.amplitude(&[0b111]).unwrap();
        assert_eq!((ipow, k), (0, 1));
        assert!(canon.amplitude(&[0b001]).is_none());
    }

    #[test]
    fn rowsum_tracks_pauli_product_signs() {
        // Y · X = (iXZ)(X) = iZ·... : check via a 1-qubit product
        // X · Y = -i Z? Signs must keep products of commuting pairs
        // consistent: (XX)·(ZZ) = -YY on two qubits.
        let mut xh = vec![0b11u64]; // XX
        let mut zh = vec![0b00u64];
        let mut rh = 0u8;
        let xi = vec![0b00u64]; // ZZ
        let zi = vec![0b11u64];
        rowsum_words(&mut xh, &mut zh, &mut rh, &xi, &zi, 0);
        assert_eq!((xh[0], zh[0]), (0b11, 0b11)); // YY
        assert_eq!(rh, 1, "XX·ZZ = (iY)(iY)-style sign: -YY");
    }

    #[test]
    fn parallel_rows_are_bit_identical() {
        let par = KernelContext::with_threads(4).with_threshold(1);
        let build = |ctx: &KernelContext| {
            let mut t = Tableau::new(67); // straddles a word boundary
            for q in 0..67 {
                t.apply_single(q, lut_h(), ctx);
            }
            for q in 0..66 {
                t.apply_cx(q, q + 1, ctx);
            }
            for q in (0..67).step_by(3) {
                t.apply_single(q, lut_s(), ctx);
            }
            let (kind, _) = t.measure_kind(0, ctx);
            if let MeasureKind::Random { pivot } = kind {
                t.project_random(0, pivot, true, ctx);
            }
            t
        };
        assert_eq!(build(&seq()), build(&par));
    }

    #[test]
    fn block_transpose_matches_the_naive_transpose() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut a = [0u64; 64];
        for word in &mut a {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *word = state;
        }
        let mut t = a;
        transpose64(&mut t);
        for (k, row) in a.iter().enumerate() {
            for (b, col) in t.iter().enumerate() {
                assert_eq!(row >> b & 1, col >> k & 1, "bit ({k}, {b})");
            }
        }
        transpose64(&mut t);
        assert_eq!(t, a, "the transpose is an involution");
    }

    #[test]
    fn a_gate_run_pays_one_switch_each_way() {
        let ctx = seq();
        let mut t = Tableau::new(130);
        for q in 0..129 {
            t.apply_single(q, lut_h(), &ctx);
            t.apply_cx(q, q + 1, &ctx);
        }
        assert_eq!(t.layout_switches(), 0, "a fresh tableau starts in columns");
        let swept = t.clone();
        t.measure_kind(5, &ctx);
        t.expectation(&[0, 0, 1], &[0, 0, 0], &ctx);
        t.canonicalize(&ctx);
        assert_eq!(t.layout_switches(), 1, "queries share one switch to rows");
        assert_eq!(t, swept, "a switch changes the layout, not the state");
        t.apply_swap(3, 7, &ctx);
        t.apply_cz(3, 7, &ctx);
        assert_eq!(t.layout_switches(), 2);
        assert_eq!(t.total_words(), 2 * (2 * 130 + 1) * 3);
        assert_eq!(t.storage_words(), 2 * 320 * 3 + 5 + 2 * 3);
    }

    /// The row-major gate kernels the column sweeps replaced, kept as
    /// the oracle: per row, gather the qubit's bits, map them, scatter.
    mod oracle {
        use super::super::{SingleLut, Tableau};
        use qdt_parallel::KernelContext;

        pub fn single(t: &mut Tableau, q: usize, lut: SingleLut) {
            t.ensure_rows(&KernelContext::sequential());
            let (wq, bq) = (q / 64, 1u64 << (q % 64));
            let w = t.w;
            for i in 0..2 * t.n {
                let (xw, zw) = (t.x[i * w + wq], t.z[i * w + wq]);
                let img = match (xw & bq != 0, zw & bq != 0) {
                    (false, false) => continue,
                    (true, false) => lut.on_x,
                    (false, true) => lut.on_z,
                    (true, true) => lut.on_y,
                };
                t.x[i * w + wq] = if img.x { xw | bq } else { xw & !bq };
                t.z[i * w + wq] = if img.z { zw | bq } else { zw & !bq };
                if img.neg {
                    t.set_sign(i, t.sign(i) ^ 1);
                }
            }
        }

        pub fn two_qubit(
            t: &mut Tableau,
            a: usize,
            b: usize,
            f: impl Fn(bool, bool, bool, bool) -> (bool, bool, bool, bool, bool),
        ) {
            t.ensure_rows(&KernelContext::sequential());
            let (wa, ba) = (a / 64, 1u64 << (a % 64));
            let (wb, bb) = (b / 64, 1u64 << (b % 64));
            let w = t.w;
            for i in 0..2 * t.n {
                let (xa, za) = (t.x[i * w + wa] & ba != 0, t.z[i * w + wa] & ba != 0);
                let (xb, zb) = (t.x[i * w + wb] & bb != 0, t.z[i * w + wb] & bb != 0);
                let (nxa, nza, nxb, nzb, flip) = f(xa, za, xb, zb);
                let put = |word: &mut u64, mask: u64, on: bool| {
                    *word = if on { *word | mask } else { *word & !mask };
                };
                put(&mut t.x[i * w + wa], ba, nxa);
                put(&mut t.z[i * w + wa], ba, nza);
                put(&mut t.x[i * w + wb], bb, nxb);
                put(&mut t.z[i * w + wb], bb, nzb);
                if flip {
                    t.set_sign(i, t.sign(i) ^ 1);
                }
            }
        }

        pub fn cx(t: &mut Tableau, c: usize, tq: usize) {
            two_qubit(t, c, tq, |xc, zc, xt, zt| {
                (xc, zc ^ zt, xt ^ xc, zt, xc & zt & !(xt ^ zc))
            });
        }

        pub fn cz(t: &mut Tableau, c: usize, tq: usize) {
            two_qubit(t, c, tq, |xc, zc, xt, zt| {
                (xc, zc ^ xt, xt, zt ^ xc, xc & xt & (zc ^ zt))
            });
        }

        pub fn swap(t: &mut Tableau, a: usize, b: usize) {
            two_qubit(t, a, b, |xa, za, xb, zb| (xb, zb, xa, za, false));
        }
    }

    mod sweeps_match_the_oracle {
        use super::super::*;
        use super::oracle;
        use crate::engine::single_lut;
        use proptest::prelude::*;
        use qdt_circuit::Gate;

        const WIDTHS: [usize; 9] = [1, 31, 63, 64, 65, 127, 128, 129, 1000];

        /// The qubits ops act on, reduced modulo the width: few enough
        /// that gates pile up on the same rows (signs flip only where a
        /// row carries X and Z on the pair), spread across word and
        /// block boundaries.
        const POOL: [usize; 9] = [0, 1, 31, 63, 64, 65, 128, 500, 999];

        /// The single-qubit gates whose numerically derived LUTs the
        /// sweeps are checked on (every image pattern the engine emits:
        /// swaps, phases, sign flips).
        const GATES: [Gate; 8] = [
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::Sx,
            Gate::Sxdg,
        ];

        /// One step, qubits given as [`POOL`] slots.
        #[derive(Debug, Clone)]
        enum Op {
            Single(usize, usize),
            Cx(usize, usize),
            Cz(usize, usize),
            Swap(usize, usize),
            Measure(usize, bool),
            /// A Pauli on the pool qubits, two bits per slot.
            Expect(u64),
            Canonicalize,
        }

        fn op() -> impl Strategy<Value = Op> {
            let slot = 0..POOL.len();
            let gate = || (0..GATES.len(), 0..POOL.len()).prop_map(|(g, a)| Op::Single(g, a));
            prop_oneof![
                gate(),
                gate(),
                (slot.clone(), slot.clone()).prop_map(|(a, b)| Op::Cx(a, b)),
                (slot.clone(), slot.clone()).prop_map(|(a, b)| Op::Cz(a, b)),
                (slot.clone(), slot.clone()).prop_map(|(a, b)| Op::Swap(a, b)),
                (slot, 0..2usize).prop_map(|(a, o)| Op::Measure(a, o == 1)),
                (0..u64::MAX).prop_map(Op::Expect),
                Just(Op::Canonicalize),
            ]
        }

        /// The identity tableau written straight into the row layout, so
        /// the oracle never goes through a block transpose.
        fn row_identity(n: usize) -> Tableau {
            let mut o = Tableau::new(n);
            o.x.fill(0);
            o.z.fill(0);
            o.layout = Layout::Rows;
            for i in 0..n {
                let (at, bit) = o.locate(i, i);
                o.x[at] |= bit;
                let (at, bit) = o.locate(n + i, i);
                o.z[at] |= bit;
            }
            o
        }

        /// Applies `op` to the swept tableau `t` and the row oracle `o`.
        fn step(op: &Op, t: &mut Tableau, o: &mut Tableau, ctx: &KernelContext) {
            let n = t.num_qubits();
            let qubit = |slot: usize| POOL[slot] % n;
            let seq = KernelContext::sequential();
            match *op {
                Op::Single(g, a) => {
                    let lut = single_lut(&GATES[g]).expect("Clifford");
                    t.apply_single(qubit(a), lut, ctx);
                    oracle::single(o, qubit(a), lut);
                }
                Op::Cx(a, b) | Op::Cz(a, b) | Op::Swap(a, b) => {
                    let (a, b) = (qubit(a), qubit(b));
                    if a == b {
                        return;
                    }
                    match op {
                        Op::Cx(..) => {
                            t.apply_cx(a, b, ctx);
                            oracle::cx(o, a, b);
                        }
                        Op::Cz(..) => {
                            t.apply_cz(a, b, ctx);
                            oracle::cz(o, a, b);
                        }
                        _ => {
                            t.apply_swap(a, b, ctx);
                            oracle::swap(o, a, b);
                        }
                    }
                }
                Op::Measure(a, outcome) => {
                    let q = qubit(a);
                    let kind = t.measure_kind(q, ctx);
                    assert_eq!(kind, o.measure_kind(q, &seq));
                    if let (MeasureKind::Random { pivot }, _) = kind {
                        let rowsums = t.project_random(q, pivot, outcome, ctx);
                        assert_eq!(rowsums, o.project_random(q, pivot, outcome, &seq));
                    }
                }
                Op::Expect(bits) => {
                    let w = t.words_per_row();
                    let mut px = vec![0u64; w];
                    let mut pz = vec![0u64; w];
                    for slot in 0..POOL.len() {
                        let q = qubit(slot);
                        let pauli = bits >> (2 * slot) & 3;
                        px[q / 64] ^= (pauli & 1) << (q % 64);
                        pz[q / 64] ^= (pauli >> 1) << (q % 64);
                    }
                    assert_eq!(t.expectation(&px, &pz, ctx), o.expectation(&px, &pz, &seq));
                }
                Op::Canonicalize => {
                    assert_eq!(t.canonicalize(ctx), o.canonicalize(&seq));
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Runs of column sweeps interleaved with measurements,
            /// expectations and canonical forms leave the tableau equal,
            /// bit for bit, to the row-major kernels' — at every width
            /// straddling a word or block boundary, sequentially and on
            /// four threads that chunk every parallel loop.
            #[test]
            fn column_sweeps_equal_the_row_kernels(
                ops in prop::collection::vec(op(), 1..48),
            ) {
                let par = KernelContext::with_threads(4).with_threshold(1);
                for n in WIDTHS {
                    for ctx in [KernelContext::sequential(), par.clone()] {
                        let mut t = Tableau::new(n);
                        let mut o = row_identity(n);
                        for op in &ops {
                            step(op, &mut t, &mut o, &ctx);
                        }
                        // Same layout: `==` compares the words outright.
                        t.ensure_rows(&ctx);
                        prop_assert!(t == o, "width {}: tableau diverged from the row oracle", n);
                    }
                }
            }
        }
    }
}
