//! Runtime-dispatched SIMD kernels for the dense gate loops.
//!
//! Every dense gate update in this crate — unfused gates, swaps, and the
//! fused block kernels of [`crate::fusion`] — is expressed as *runs*: a
//! run is `len` consecutive amplitudes (or `len` amplitude pairs whose
//! two sides are each consecutive), updated by one `Update`. For a
//! general 2×2 gate every pair computes
//!
//! ```text
//! b0 = m00·a0 + m01·a1
//! b1 = m10·a0 + m11·a1
//! ```
//!
//! This module provides two interchangeable implementations of each run
//! kernel and a runtime dispatcher:
//!
//! * an explicit `std::arch` AVX2/FMA kernel — complex multiplication as
//!   shuffle + `vfmaddsub231pd`, two amplitudes per 256-bit register;
//! * a scalar fallback built on [`Complex::mul_fma`], which performs the
//!   *identical* floating-point operation sequence per lane (one rounded
//!   cross-product, one single-rounded fused multiply-add per component).
//!
//! Because both paths round every intermediate the same way, scalar and
//! vector execution are **bit-identical** — `tests/fusion_agreement.rs`
//! enforces this with exact `==` comparisons under the `QDT_SIMD=scalar`
//! override. Dispatch therefore never affects results, only speed.
//!
//! # Lanes
//!
//! Runs are unit-stride, so an op whose amplitude set depends on index
//! bit 0 (qubit 0 of the state, or the lowest qubit of a fused block: a
//! control on it, or a diagonal gate targeting it) cannot skip every
//! other amplitude without breaking the stride. Instead such an op
//! carries one update per index parity (*lane*): the identity (or a
//! factor of exactly 1) for the amplitudes it must leave alone. A
//! multiplication by exactly `1` and an addition of an exact `0` can
//! change only the sign of a zero, so the result is still equal under
//! IEEE `==` to skipping those amplitudes (DESIGN.md §16).
//!
//! # Dispatch
//!
//! [`simd_active`] returns `true` only when the CPU reports AVX2 *and*
//! FMA at runtime (cached after the first query) and the `QDT_SIMD`
//! environment variable does not force the scalar path (`scalar`, `off`,
//! or `0`). Non-x86_64 builds always take the scalar path.

use std::ops::Range;

use qdt_complex::{Complex, Matrix};
use qdt_parallel::SharedSlice;

/// Environment variable overriding SIMD dispatch; set to `scalar`,
/// `off`, or `0` to force the scalar kernels (used by the CI
/// scalar-fallback job and the bit-identity tests).
pub const SIMD_ENV: &str = "QDT_SIMD";

/// Whether the vectorized kernels will be used for the next gate
/// application: AVX2+FMA detected at runtime and not overridden via
/// [`SIMD_ENV`].
#[must_use]
pub fn simd_active() -> bool {
    !forced_scalar() && avx2_fma_available()
}

/// `true` when [`SIMD_ENV`] requests the scalar path.
fn forced_scalar() -> bool {
    std::env::var(SIMD_ENV).is_ok_and(|v| {
        let v = v.trim().to_ascii_lowercase();
        v == "scalar" || v == "off" || v == "0"
    })
}

/// Cached runtime CPU-feature check for AVX2 + FMA.
fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The four entries of a 2×2 gate, unpacked for the pair kernels.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PairGate {
    /// Row 0: `b0 = m00·a0 + m01·a1`.
    pub m00: Complex,
    /// Row 0, column 1.
    pub m01: Complex,
    /// Row 1: `b1 = m10·a0 + m11·a1`.
    pub m10: Complex,
    /// Row 1, column 1.
    pub m11: Complex,
}

impl PairGate {
    /// The identity: the lane of a pair run whose control on index bit 0 is
    /// unset.
    pub const IDENTITY: PairGate = PairGate {
        m00: Complex::ONE,
        m01: Complex::ZERO,
        m10: Complex::ZERO,
        m11: Complex::ONE,
    };

    /// Unpacks a 2×2 matrix.
    pub fn from_matrix(m: &Matrix) -> PairGate {
        PairGate {
            m00: m.get(0, 0),
            m01: m.get(0, 1),
            m10: m.get(1, 0),
            m11: m.get(1, 1),
        }
    }

    /// Whether both off-diagonal entries are exactly zero.
    pub fn is_diagonal(&self) -> bool {
        is_zero(self.m01) && is_zero(self.m10)
    }

    /// `X·G·X`: the gate acting on a target whose stored bit is flipped.
    /// The entries move; none is recomputed.
    pub fn flipped(&self) -> PairGate {
        PairGate {
            m00: self.m11,
            m01: self.m10,
            m10: self.m01,
            m11: self.m00,
        }
    }
}

/// `true` for exactly `1 + 0i`: multiplying by it can change at most the
/// sign of a zero.
fn is_one(c: Complex) -> bool {
    c.re == 1.0 && c.im == 0.0
}

/// `true` for an exact (signed) zero.
fn is_zero(c: Complex) -> bool {
    c.re == 0.0 && c.im == 0.0
}

/// One pair update with the canonical FP operation order shared by the
/// scalar and AVX2 kernels: per output component, one rounded
/// cross-product, one fused multiply-add ([`Complex::mul_fma`]), and a
/// plain component-wise add between the two column contributions.
#[inline(always)]
pub(crate) fn pair_update(g: &PairGate, a0: Complex, a1: Complex) -> (Complex, Complex) {
    (
        g.m00.mul_fma(a0) + g.m01.mul_fma(a1),
        g.m10.mul_fma(a0) + g.m11.mul_fma(a1),
    )
}

/// What a run does to its amplitudes. Index `i` of a run uses lane
/// `i & 1` of a two-lane update; a run whose lanes differ always starts
/// at an even index, so lane 0 is the `|…0⟩` side of index bit 0.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Update {
    /// The full 2×2 on pairs `(o0 + i, o1 + i)`, one gate per lane.
    Pairs([PairGate; 2]),
    /// The full 2×2 on pairs `(o0 + 2i, o0 + 2i + 1)`: a gate on bit 0.
    Interleaved(PairGate),
    /// Exchange pairs `(o0 + i, o1 + i)` (swaps, and `X` with unit
    /// entries): pure moves.
    Swap,
    /// Exchange pairs `(o0 + 2i, o0 + 2i + 1)`: an `X`-shaped gate on
    /// bit 0, a pure move.
    SwapInterleaved,
    /// Multiply amplitude `o0 + i` by its lane's factor (diagonal gates).
    Scale([Complex; 2]),
}

/// One gate's runs in an index space: every index `i` with
/// `i & fixed == value` (run starts leave the `sides` bits clear), with
/// the pair sides at `i | sides.0` and `i | sides.1`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunSpec {
    /// Bits whose values select the visited indices.
    pub fixed: usize,
    /// Required values of the `fixed` bits.
    pub value: usize,
    /// Bits set on the `o0` and `o1` sides of a pair.
    pub sides: (usize, usize),
    /// What each run does.
    pub update: Update,
}

impl Update {
    /// The update with the lanes' roles exchanged, for a gate whose own
    /// qubit on index bit 0 (its target or a control) has its stored
    /// value flipped: lanes swap, and a gate on bit 0 becomes `X·G·X`.
    fn flip_bit0(self) -> Update {
        match self {
            Update::Pairs([l0, l1]) => Update::Pairs([l1, l0]),
            Update::Scale([l0, l1]) => Update::Scale([l1, l0]),
            Update::Interleaved(g) => Update::Interleaved(g.flipped()),
            moves @ (Update::Swap | Update::SwapInterleaved) => moves,
        }
    }
}

impl RunSpec {
    /// The same gate on a state whose stored bits in `mask` are flipped
    /// (`mask` holds only this gate's own bits). A flipped control or
    /// diagonal target requires the opposite value, a flipped pair side
    /// exchanges `o0` and `o1` (the amplitudes meet the same expression
    /// in the same order), and a flipped bit 0 exchanges the lanes (see
    /// [`Update`]). Nothing is recomputed, so every amplitude receives
    /// the arithmetic it would receive unflipped.
    pub(crate) fn flipped(self, mask: usize) -> RunSpec {
        let sides = self.sides.0 | self.sides.1;
        RunSpec {
            value: self.value ^ (mask & self.fixed & !sides),
            sides: (self.sides.0 ^ (mask & sides), self.sides.1 ^ (mask & sides)),
            update: self.update_flipped(mask, self.update),
            ..self
        }
    }

    /// `u` (this spec's update, or a per-block alternative of it) with
    /// its lanes exchanged when `mask` flips bit 0 and bit 0 selects
    /// lanes rather than runs.
    pub(crate) fn update_flipped(&self, mask: usize, u: Update) -> Update {
        if mask & !self.fixed & 1 != 0 {
            u.flip_bit0()
        } else {
            u
        }
    }
}

/// Moves a control on index bit 0 into the lanes (see the module docs):
/// returns the remaining control mask and whether lane 0 must be left
/// alone.
fn split_bit0(cmask: usize) -> (usize, bool) {
    (cmask & !1, cmask & 1 != 0)
}

/// Scale factors for entry `m`, leaving lane 0 alone if `on_bit0`.
fn scale_lanes(m: Complex, on_bit0: bool) -> [Complex; 2] {
    [if on_bit0 { Complex::ONE } else { m }, m]
}

/// The runs of a gate `g` on target bit `tbit` with control mask
/// `cmask` in an index space whose bit 0 is the lane bit (the whole
/// state, or a fused block's local indices), specialised on the matrix
/// shape (DESIGN.md §16):
///
/// * diagonal — scale only the sides whose entry is not exactly 1, and
///   only the amplitudes that pass the controls (no pair update at all);
/// * `X`-shaped (zero diagonal, unit anti-diagonal) — pure moves, also
///   on bit 0;
/// * a gate on bit 0 — interleaved pairs;
/// * otherwise the full 2×2 on pair runs.
pub(crate) fn gate_runs(tbit: usize, cmask: usize, g: &PairGate) -> [Option<RunSpec>; 2] {
    let (cmask, on_bit0) = split_bit0(cmask);
    let spec = |fixed, value, sides, update| {
        Some(RunSpec {
            fixed,
            value,
            sides,
            update,
        })
    };
    if g.is_diagonal() {
        if tbit == 1 {
            // Both sides of bit 0 in one run: the lanes are the entries.
            if is_one(g.m00) && is_one(g.m11) {
                return [None, None];
            }
            return [
                spec(cmask, cmask, (0, 0), Update::Scale([g.m00, g.m11])),
                None,
            ];
        }
        return [(0, g.m00), (tbit, g.m11)].map(|(side, m)| {
            let update = Update::Scale(scale_lanes(m, on_bit0));
            spec(cmask | tbit, cmask | side, (0, 0), update).filter(|_| !is_one(m))
        });
    }
    let x_shaped = is_zero(g.m00) && is_zero(g.m11) && is_one(g.m01) && is_one(g.m10);
    if tbit == 1 {
        let update = if x_shaped {
            Update::SwapInterleaved
        } else {
            Update::Interleaved(*g)
        };
        return [spec(cmask, cmask, (0, 0), update), None];
    }
    let update = if on_bit0 {
        Update::Pairs([PairGate::IDENTITY, *g])
    } else if x_shaped {
        Update::Swap
    } else {
        Update::Pairs([*g, *g])
    };
    [spec(cmask | tbit, cmask, (0, tbit), update), None]
}

/// The runs of a diagonal gate whose target lies *outside* the index
/// space (a fused block): the amplitudes that pass the controls, and the
/// update per value of the target bit (`None` where the entry is exactly
/// 1). `None` overall when both entries are 1.
pub(crate) fn outside_diagonal_runs(
    cmask: usize,
    g: &PairGate,
) -> Option<(RunSpec, [Option<Update>; 2])> {
    let (cmask, on_bit0) = split_bit0(cmask);
    let factor = |m: Complex| (!is_one(m)).then(|| Update::Scale(scale_lanes(m, on_bit0)));
    let updates = [factor(g.m00), factor(g.m11)];
    let spec = RunSpec {
        fixed: cmask,
        value: cmask,
        sides: (0, 0),
        update: updates[0].or(updates[1])?,
    };
    Some((spec, updates))
}

/// The runs of a (controlled) swap of bits `abit` and `bbit`.
pub(crate) fn swap_runs(abit: usize, bbit: usize, cmask: usize) -> RunSpec {
    RunSpec {
        fixed: abit | bbit | cmask,
        value: cmask,
        sides: (abit, bbit),
        update: Update::Swap,
    }
}

/// A run repeated `reps` times, `stride` amplitudes apart: repetition
/// `r` updates units `i < len` at `o0 + r·stride` (and `o1 + r·stride`
/// for pair updates). Strided repetition keeps short runs — a gate on
/// qubit 1 pairs amplitudes two apart — out of the run lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Run {
    /// Offset of the first (or only) side.
    pub o0: usize,
    /// Offset of the partner side of a pair update.
    pub o1: usize,
    /// Units per repetition (pairs for pair updates).
    pub len: usize,
    /// Number of repetitions.
    pub reps: usize,
    /// Amplitudes between repetitions.
    pub stride: usize,
}

/// Applies `u` to `count` runs, run `k` being `run(k)` (offsets into
/// `amps`; `o1` is ignored by the single-sided updates). The `match`
/// sits outside the run loops, so each update kind gets its own
/// straight loop.
///
/// # Safety
///
/// Every index a run touches must be in bounds and owned by the caller
/// under its disjoint partition. With `SIMD = true` this must only be
/// inlined into a function compiled with AVX2 and FMA enabled.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) unsafe fn apply_runs<const SIMD: bool>(
    amps: *mut Complex,
    count: usize,
    run: impl Fn(usize) -> Run,
    u: &Update,
) {
    // Every repetition of every run, as `(side-0 pointer, side-1
    // pointer, len)`.
    macro_rules! each {
        (|$p0:ident, $p1:ident, $len:ident| $body:expr) => {
            for k in 0..count {
                let r = run(k);
                for rep in 0..r.reps {
                    let off = rep * r.stride;
                    // SAFETY: forwarded from the caller's contract.
                    let ($p0, $p1, $len) =
                        unsafe { (amps.add(r.o0 + off), amps.add(r.o1 + off), r.len) };
                    let _ = $p1;
                    // SAFETY: as above.
                    unsafe { $body };
                }
            }
        };
    }
    match u {
        Update::Pairs(g) => each!(|p0, p1, len| pairs_run::<SIMD>(p0, p1, len, g)),
        Update::Interleaved(g) => each!(|p0, p1, len| interleaved_run::<SIMD>(p0, len, g)),
        Update::Swap => each!(|p0, p1, len| swap_run::<SIMD>(p0, p1, len)),
        Update::SwapInterleaved => each!(|p0, p1, len| swap_interleaved_run::<SIMD>(p0, len)),
        Update::Scale(m) => each!(|p0, p1, len| scale_run::<SIMD>(p0, len, m)),
    }
}

/// Exchanges `len` amplitudes of `p0` and `p1`.
#[inline(always)]
#[allow(unsafe_code)]
unsafe fn swap_run<const SIMD: bool>(p0: *mut Complex, p1: *mut Complex, len: usize) {
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    if SIMD {
        // SAFETY: caller contract; AVX2 enabled in the instantiation.
        i = unsafe { avx2::swap_run(p0, p1, len) };
    }
    // SAFETY: caller contract (the two sides of a run never overlap).
    unsafe { std::ptr::swap_nonoverlapping(p0.add(i), p1.add(i), len - i) };
}

/// Exchanges the two amplitudes of each of `pairs` pairs
/// `(p[2i], p[2i + 1])`.
#[inline(always)]
#[allow(unsafe_code)]
unsafe fn swap_interleaved_run<const SIMD: bool>(p: *mut Complex, pairs: usize) {
    #[cfg(target_arch = "x86_64")]
    if SIMD {
        // SAFETY: caller contract; AVX2 enabled in the instantiation.
        unsafe { avx2::swap_interleaved_run(p, pairs) };
        return;
    }
    for i in 0..pairs {
        // SAFETY: caller contract.
        unsafe { std::ptr::swap(p.add(2 * i), p.add(2 * i + 1)) };
    }
}

/// `len` pairs `(p0[i], p1[i])`, lane `i & 1`.
#[inline(always)]
#[allow(unsafe_code)]
unsafe fn pairs_run<const SIMD: bool>(
    p0: *mut Complex,
    p1: *mut Complex,
    len: usize,
    lanes: &[PairGate; 2],
) {
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    if SIMD {
        // SAFETY: caller contract; AVX2+FMA enabled in the instantiation.
        i = unsafe { avx2::pairs_run(p0, p1, len, lanes) };
    }
    for i in i..len {
        // SAFETY: caller contract.
        unsafe {
            let (b0, b1) = pair_update(&lanes[i & 1], *p0.add(i), *p1.add(i));
            *p0.add(i) = b0;
            *p1.add(i) = b1;
        }
    }
}

/// `pairs` pairs `(p[2i], p[2i + 1])`.
#[inline(always)]
#[allow(unsafe_code)]
unsafe fn interleaved_run<const SIMD: bool>(p: *mut Complex, pairs: usize, g: &PairGate) {
    #[cfg(target_arch = "x86_64")]
    if SIMD {
        // SAFETY: caller contract; AVX2+FMA enabled in the instantiation.
        unsafe { avx2::interleaved_run(p, pairs, g) };
        return;
    }
    for i in 0..pairs {
        // SAFETY: caller contract.
        unsafe {
            let (b0, b1) = pair_update(g, *p.add(2 * i), *p.add(2 * i + 1));
            *p.add(2 * i) = b0;
            *p.add(2 * i + 1) = b1;
        }
    }
}

/// `len` amplitudes scaled by their lane's factor.
#[inline(always)]
#[allow(unsafe_code)]
unsafe fn scale_run<const SIMD: bool>(p: *mut Complex, len: usize, lanes: &[Complex; 2]) {
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    if SIMD {
        // SAFETY: caller contract; AVX2+FMA enabled in the instantiation.
        i = unsafe { avx2::scale_run(p, len, lanes) };
    }
    for i in i..len {
        // SAFETY: caller contract.
        unsafe { *p.add(i) = lanes[i & 1].mul_fma(*p.add(i)) };
    }
}

/// Log₂ of the most amplitudes one unfused run spans, so a gate splits
/// into enough runs to partition across workers.
const MAX_SPAN_LOG: usize = 12;

/// The runs of one [`RunSpec`] over an index space of `num_bits` bits
/// (the whole state for an unfused gate, or a fused block's local
/// indices): every index `i` with `i & fixed == value`, as strided runs
/// (see [`Run`]) that each span at most `2^MAX_SPAN_LOG` amplitudes,
/// with the two sides of a pair at `start + sides.0` and
/// `start + sides.1`.
#[derive(Clone, Debug)]
pub(crate) struct RunSet {
    /// The fixed bits above the span, inserted into the run index.
    outer: usize,
    /// Required values of the fixed bits.
    value: usize,
    /// Log₂ of the amplitudes one run spans.
    span_log: usize,
    /// Run 0 before its start offset is added.
    template: Run,
    /// Number of runs.
    count: usize,
}

impl RunSet {
    /// The runs of `spec` over `num_qubits` index bits.
    pub(crate) fn new(num_qubits: usize, spec: &RunSpec) -> RunSet {
        let cap = MAX_SPAN_LOG.min(num_qubits);
        // The two lowest fixed bits (`num_qubits` when absent).
        let f0 = (spec.fixed.trailing_zeros() as usize).min(num_qubits);
        let f1 = ((spec.fixed & !(1 << f0)).trailing_zeros() as usize).min(num_qubits);
        // Contiguous amplitudes per repetition, up to the lowest fixed
        // bit; repetitions across the free bits up to the next one.
        let run_log = f0.min(cap);
        let (span_log, reps) = if f0 < cap {
            let span_log = f1.min(cap);
            (span_log, 1 << (span_log - f0 - 1))
        } else {
            (run_log, 1)
        };
        let outer = spec.fixed & !((1 << span_log) - 1);
        let len = match spec.update {
            // Bit 0 is the target, so it is never fixed: run_log ≥ 1.
            Update::Interleaved(_) | Update::SwapInterleaved => 1 << (run_log - 1),
            _ => 1 << run_log,
        };
        RunSet {
            count: 1 << (num_qubits - span_log - outer.count_ones() as usize),
            outer,
            value: spec.value,
            span_log,
            template: Run {
                o0: spec.sides.0,
                o1: spec.sides.1,
                len,
                reps,
                stride: 2 << run_log,
            },
        }
    }

    /// Number of runs.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Amplitudes one run updates.
    pub(crate) fn weight(&self) -> usize {
        self.template.len * self.template.reps
    }

    /// Run `p`: insert zeros at the fixed bits above the span, then set
    /// every fixed bit to its value.
    #[inline(always)]
    pub(crate) fn run(&self, p: usize) -> Run {
        let mut start = p << self.span_log;
        let mut outer = self.outer;
        while outer != 0 {
            // Ascending: insert a zero at the lowest remaining fixed bit.
            let below = (outer & outer.wrapping_neg()) - 1;
            start = ((start & !below) << 1) | (start & below);
            outer &= outer - 1;
        }
        start |= self.value;
        Run {
            o0: start + self.template.o0,
            o1: start + self.template.o1,
            ..self.template
        }
    }
}

/// Applies `u` to runs `range` of `runs` on the shared state, through
/// the AVX2 instantiation when `simd` is true (the caller must have
/// checked [`simd_active`]); both paths are bit-identical.
///
/// Runs own disjoint index sets, so concurrent calls over disjoint
/// ranges uphold the [`SharedSlice`] contract.
pub(crate) fn apply_run_set(
    amps: &SharedSlice<'_, Complex>,
    range: Range<usize>,
    runs: &RunSet,
    u: &Update,
    simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after a runtime AVX2+FMA check.
        #[allow(unsafe_code)]
        unsafe {
            run_set_avx2(amps, range, runs, u);
        }
        return;
    }
    let _ = simd;
    run_set_body::<false>(amps, range, runs, u);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn run_set_avx2(
    amps: &SharedSlice<'_, Complex>,
    range: Range<usize>,
    runs: &RunSet,
    u: &Update,
) {
    run_set_body::<true>(amps, range, runs, u);
}

#[inline(always)]
fn run_set_body<const SIMD: bool>(
    amps: &SharedSlice<'_, Complex>,
    range: Range<usize>,
    runs: &RunSet,
    u: &Update,
) {
    let first = range.start;
    // SAFETY: run p owns the indices it expands to (distinct p expand to
    // disjoint index sets), and the caller partitions p disjointly.
    #[allow(unsafe_code)]
    unsafe {
        apply_runs::<SIMD>(amps.as_mut_ptr(), range.len(), |k| runs.run(first + k), u);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The explicit AVX2/FMA run kernels. Each processes the even-length
    //! prefix of its run two amplitudes per register and returns how far
    //! it got; the caller finishes the remainder with the scalar loop.
    //!
    //! Layout: a `__m256d` holds two consecutive `Complex` values as
    //! `[z0.re, z0.im, z1.re, z1.im]`. A complex product `m·z` with `m`
    //! broadcast per lane pair is
    //!
    //! ```text
    //! swap  = permute(z, 0b0101)          // [im, re] per complex
    //! cross = m_im ⊙ swap                 // one rounded multiply
    //! out   = fmaddsub(m_re, z, cross)    // even: fma(−), odd: fma(+)
    //! ```
    //!
    //! which rounds exactly like [`Complex::mul_fma`] per lane. These are
    //! `#[inline(always)]` without their own `target_feature`: they are
    //! only reached from the `SIMD = true` instantiations, which inline
    //! into functions compiled with AVX2 and FMA.

    use super::PairGate;
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_fmaddsub_pd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_permute2f128_pd, _mm256_permute_pd, _mm256_set_pd, _mm256_storeu_pd,
    };

    use qdt_complex::Complex;

    /// `m·z` per 128-bit complex lane; `m_re`/`m_im` hold the real and
    /// imaginary parts of each lane's multiplier, duplicated per lane.
    #[inline(always)]
    #[allow(unsafe_code)]
    unsafe fn cmul(m: (__m256d, __m256d), z: __m256d) -> __m256d {
        // SAFETY: pure register arithmetic; caller guarantees AVX2+FMA.
        unsafe {
            let swapped = _mm256_permute_pd(z, 0b0101);
            _mm256_fmaddsub_pd(m.0, z, _mm256_mul_pd(m.1, swapped))
        }
    }

    /// `(re, im)` registers holding `lo` in lane 0 and `hi` in lane 1.
    #[inline(always)]
    #[allow(unsafe_code)]
    unsafe fn lanes(lo: Complex, hi: Complex) -> (__m256d, __m256d) {
        // SAFETY: register construction; `_mm256_set_pd` takes lanes
        // high→low.
        unsafe {
            (
                _mm256_set_pd(hi.re, hi.re, lo.re, lo.re),
                _mm256_set_pd(hi.im, hi.im, lo.im, lo.im),
            )
        }
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    pub(super) unsafe fn pairs_run(
        p0: *mut Complex,
        p1: *mut Complex,
        len: usize,
        g: &[PairGate; 2],
    ) -> usize {
        // SAFETY: the 4-f64 loads/stores cover amplitudes i and i+1 of
        // both sides, inside the run the caller owns.
        unsafe {
            let m00 = lanes(g[0].m00, g[1].m00);
            let m01 = lanes(g[0].m01, g[1].m01);
            let m10 = lanes(g[0].m10, g[1].m10);
            let m11 = lanes(g[0].m11, g[1].m11);
            let (f0, f1) = (p0.cast::<f64>(), p1.cast::<f64>());
            let even = len & !1;
            let mut i = 0;
            while i < even {
                let v0 = _mm256_loadu_pd(f0.add(2 * i));
                let v1 = _mm256_loadu_pd(f1.add(2 * i));
                let b0 = _mm256_add_pd(cmul(m00, v0), cmul(m01, v1));
                let b1 = _mm256_add_pd(cmul(m10, v0), cmul(m11, v1));
                _mm256_storeu_pd(f0.add(2 * i), b0);
                _mm256_storeu_pd(f1.add(2 * i), b1);
                i += 2;
            }
            even
        }
    }

    /// Target qubit 0: `(a0, a1)` of pair `i` sit at `2i, 2i+1`, so one
    /// 256-bit load covers the whole pair; the matrix columns are
    /// pre-broadcast as `[m00, m10]` / `[m01, m11]` vectors.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub(super) unsafe fn interleaved_run(p: *mut Complex, pairs: usize, g: &PairGate) {
        // SAFETY: pair i owns complex slots 2i and 2i+1 — exactly the
        // four f64 lanes loaded and stored here.
        unsafe {
            let c0 = lanes(g.m00, g.m10);
            let c1 = lanes(g.m01, g.m11);
            let f = p.cast::<f64>();
            for i in 0..pairs {
                let v = _mm256_loadu_pd(f.add(4 * i));
                let a0 = _mm256_permute2f128_pd(v, v, 0x00); // [a0, a0]
                let a1 = _mm256_permute2f128_pd(v, v, 0x11); // [a1, a1]
                let b = _mm256_add_pd(cmul(c0, a0), cmul(c1, a1));
                _mm256_storeu_pd(f.add(4 * i), b);
            }
        }
    }

    /// Moves only: two amplitudes of each side per register.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub(super) unsafe fn swap_run(p0: *mut Complex, p1: *mut Complex, len: usize) -> usize {
        // SAFETY: the 4-f64 loads/stores cover amplitudes i and i+1 of
        // both sides, inside the run the caller owns.
        unsafe {
            let (f0, f1) = (p0.cast::<f64>(), p1.cast::<f64>());
            let even = len & !1;
            let mut i = 0;
            while i < even {
                let v0 = _mm256_loadu_pd(f0.add(2 * i));
                let v1 = _mm256_loadu_pd(f1.add(2 * i));
                _mm256_storeu_pd(f0.add(2 * i), v1);
                _mm256_storeu_pd(f1.add(2 * i), v0);
                i += 2;
            }
            even
        }
    }

    /// One 256-bit load holds a whole pair; exchanging its 128-bit
    /// halves is the move.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub(super) unsafe fn swap_interleaved_run(p: *mut Complex, pairs: usize) {
        // SAFETY: pair i owns complex slots 2i and 2i+1 — exactly the
        // four f64 lanes loaded and stored here.
        unsafe {
            let f = p.cast::<f64>();
            for i in 0..pairs {
                let v = _mm256_loadu_pd(f.add(4 * i));
                _mm256_storeu_pd(f.add(4 * i), _mm256_permute2f128_pd(v, v, 0x01));
            }
        }
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    pub(super) unsafe fn scale_run(p: *mut Complex, len: usize, m: &[Complex; 2]) -> usize {
        // SAFETY: the 4-f64 loads/stores cover amplitudes i and i+1 of
        // the run the caller owns.
        unsafe {
            let m = lanes(m[0], m[1]);
            let f = p.cast::<f64>();
            let even = len & !1;
            let mut i = 0;
            while i < even {
                let v = _mm256_loadu_pd(f.add(2 * i));
                _mm256_storeu_pd(f.add(2 * i), cmul(m, v));
                i += 2;
            }
            even
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_parallel::SharedSlice;

    /// A deterministic, well-spread set of test amplitudes.
    fn amps(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let x = (i as f64).mul_add(0.618_033_988_749_894_9, 0.1).fract();
                Complex::cis(x * 6.0).scale(0.5 + x)
            })
            .collect()
    }

    fn sample_gate() -> PairGate {
        let c = std::f64::consts::FRAC_1_SQRT_2;
        PairGate {
            m00: Complex::new(c, 0.1),
            m01: Complex::new(0.3, -c),
            m10: Complex::new(-0.2, c),
            m11: Complex::new(c, 0.4),
        }
    }

    /// One run spec of every update kind on an 8-qubit state: targets on
    /// qubits 0, 1 and 5, controls on qubit 0 (lanes) and above, dense
    /// gates, diagonals, Y, X-shaped moves and swaps.
    fn cases() -> Vec<RunSpec> {
        let g = sample_gate();
        let h = PairGate::from_matrix(&qdt_circuit::Gate::H.matrix());
        let y = PairGate::from_matrix(&qdt_circuit::Gate::Y.matrix());
        let rz = PairGate::from_matrix(&qdt_circuit::Gate::Rz(0.7).matrix());
        let t = PairGate::from_matrix(&qdt_circuit::Gate::T.matrix());
        let mut specs = Vec::new();
        for gate in [g, h, y, rz, t] {
            for (tbit, cmask) in [
                (1, 0),
                (1, 0b1000_0000),
                (2, 0),
                (32, 0),
                (32, 1),
                (2, 0b1001),
            ] {
                specs.extend(gate_runs(tbit, cmask, &gate).into_iter().flatten());
            }
        }
        // X-shaped moves: on bit 0 (interleaved), above it, and with a
        // lane control; swaps whose runs are 1, 2 and 8 amplitudes long.
        let x = PairGate::from_matrix(&qdt_circuit::Gate::X.matrix());
        for (tbit, cmask) in [(1, 0), (1, 0b100), (2, 0), (8, 1)] {
            specs.extend(gate_runs(tbit, cmask, &x).into_iter().flatten());
        }
        specs.push(swap_runs(1, 64, 0));
        specs.push(swap_runs(2, 64, 0));
        specs.push(swap_runs(8, 128, 0b10));
        specs.push(swap_runs(4, 32, 0b10));
        // The same gates on flipped stored bits: swapped sides and lanes,
        // opposite control values.
        let flipped: Vec<RunSpec> = specs
            .iter()
            .map(|s| s.flipped(s.fixed | s.sides.0 | s.sides.1 | 1))
            .collect();
        specs.extend(flipped);
        specs
    }

    fn run_spec(state: &mut [Complex], spec: &RunSpec, simd: bool) {
        let runs = RunSet::new(8, spec);
        apply_run_set(
            &SharedSlice::new(state),
            0..runs.count(),
            &runs,
            &spec.update,
            simd,
        );
    }

    /// The real guarantee behind `QDT_SIMD=scalar` bit-identity: run the
    /// same runs through both implementations and compare bits.
    #[test]
    fn avx2_and_scalar_paths_are_bit_identical() {
        if !simd_active() {
            return; // nothing to compare on this host
        }
        for spec in cases() {
            let mut scalar = amps(256);
            let mut vector = scalar.clone();
            run_spec(&mut scalar, &spec, false);
            run_spec(&mut vector, &spec, true);
            assert!(scalar == vector, "{spec:?}: SIMD drifted from scalar");
        }
    }

    /// A 7-pair run starting at an odd index: vector prefix plus scalar
    /// tail, inside a 32-amplitude buffer.
    #[cfg(target_arch = "x86_64")]
    const ODD_RUN: Run = Run {
        o0: 1,
        o1: 9,
        len: 7,
        reps: 1,
        stride: 0,
    };

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(unsafe_code)]
    unsafe fn odd_run_avx2(p: *mut Complex, u: &Update) {
        // SAFETY: forwarded from the caller.
        unsafe { apply_runs::<true>(p, 1, |_| ODD_RUN, u) };
    }

    /// Partial run ranges (as a worker's chunk sees them) and odd-length
    /// runs agree between the paths.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn misaligned_ranges_match_scalar() {
        if !simd_active() {
            return;
        }
        let g = sample_gate();
        let spec = gate_runs(1 << 5, 0b10, &g)[0].expect("dense gate");
        let runs = RunSet::new(8, &spec);
        let mut scalar = amps(256);
        let mut vector = scalar.clone();
        for (state, simd) in [(&mut scalar, false), (&mut vector, true)] {
            apply_run_set(
                &SharedSlice::new(state),
                1..runs.count(),
                &runs,
                &spec.update,
                simd,
            );
        }
        assert!(scalar == vector, "partial range drifted");
        let mut scalar = amps(32);
        let mut vector = scalar.clone();
        // SAFETY: the run stays inside the buffers; AVX2+FMA checked above.
        #[allow(unsafe_code)]
        unsafe {
            apply_runs::<false>(scalar.as_mut_ptr(), 1, |_| ODD_RUN, &spec.update);
            odd_run_avx2(vector.as_mut_ptr(), &spec.update);
        }
        assert!(scalar == vector, "odd-length run drifted");
    }

    /// Controlled gates — a control above the target, and one on index
    /// bit 0 carried as a lane — agree between the paths.
    #[test]
    fn controlled_pairs_match_scalar() {
        if !simd_active() {
            return;
        }
        let g = sample_gate();
        for (tbit, cmask) in [(1, 0b100), (4, 0b1), (8, 0b10001)] {
            let mut scalar = amps(256);
            let mut vector = scalar.clone();
            for spec in gate_runs(tbit, cmask, &g).into_iter().flatten() {
                run_spec(&mut scalar, &spec, false);
                run_spec(&mut vector, &spec, true);
            }
            assert!(
                scalar == vector,
                "target {tbit}, controls {cmask:b} drifted"
            );
        }
    }

    /// Every specialised run spec computes what the full 2×2 pair update
    /// computes (under `==`, i.e. up to the sign of a zero).
    #[test]
    fn specialised_runs_match_the_full_pair_update() {
        let n = 8;
        for (gate, tbit, cmask) in [
            (sample_gate(), 1, 0),
            (PairGate::from_matrix(&qdt_circuit::Gate::H.matrix()), 4, 1),
            (
                PairGate::from_matrix(&qdt_circuit::Gate::X.matrix()),
                2,
                0b1000,
            ),
            (PairGate::from_matrix(&qdt_circuit::Gate::Y.matrix()), 8, 0),
            (
                PairGate::from_matrix(&qdt_circuit::Gate::Rz(0.3).matrix()),
                1,
                0b110,
            ),
            (
                PairGate::from_matrix(&qdt_circuit::Gate::T.matrix()),
                16,
                0b1,
            ),
        ] {
            let mut want = amps(1 << n);
            for i0 in (0..1usize << n).filter(|i| i & tbit == 0 && i & cmask == cmask) {
                let (b0, b1) = pair_update(&gate, want[i0], want[i0 | tbit]);
                want[i0] = b0;
                want[i0 | tbit] = b1;
            }
            let mut got = amps(1 << n);
            for spec in gate_runs(tbit, cmask, &gate).into_iter().flatten() {
                run_spec(&mut got, &spec, simd_active());
            }
            assert!(got == want, "target {tbit}, controls {cmask:b}");
        }
    }

    /// Run enumeration visits exactly the indices with the fixed bits
    /// set to their values, each once.
    #[test]
    fn global_runs_cover_the_fixed_pattern() {
        let g = sample_gate();
        for (tbit, cmask) in [(4, 1 << 15), (2, 0b10000), (1, 0), (8192, 2)] {
            let spec = gate_runs(tbit, cmask, &g)[0].expect("non-identity gate");
            let runs = RunSet::new(16, &spec);
            let unit = match spec.update {
                Update::Interleaved(_) => 2,
                _ => 1,
            };
            let mut seen = Vec::new();
            for p in 0..runs.count() {
                let r = runs.run(p);
                assert_eq!(r.o1, r.o0 + spec.sides.1 - spec.sides.0);
                for rep in 0..r.reps {
                    let start = r.o0 + rep * r.stride;
                    seen.extend(start..start + r.len * unit);
                }
            }
            seen.sort_unstable();
            let want: Vec<usize> = (0..1 << 16)
                .filter(|i| i & spec.fixed == spec.value)
                .collect();
            assert_eq!(seen, want, "target {tbit}, controls {cmask:b}");
        }
    }

    #[test]
    fn env_override_forces_the_scalar_path() {
        // Serialise against nothing: this is the only test in the crate
        // touching QDT_SIMD.
        std::env::set_var(SIMD_ENV, "scalar");
        assert!(!simd_active());
        std::env::set_var(SIMD_ENV, "0");
        assert!(!simd_active());
        std::env::set_var(SIMD_ENV, "auto");
        assert_eq!(simd_active(), avx2_fma_available());
        std::env::remove_var(SIMD_ENV);
    }

    #[test]
    fn pair_update_matches_the_documented_expression() {
        let g = sample_gate();
        let a0 = Complex::new(0.25, -0.5);
        let a1 = Complex::new(-0.75, 0.125);
        let (b0, b1) = pair_update(&g, a0, a1);
        assert_eq!(b0, g.m00.mul_fma(a0) + g.m01.mul_fma(a1));
        assert_eq!(b1, g.m10.mul_fma(a0) + g.m11.mul_fma(a1));
    }
}
