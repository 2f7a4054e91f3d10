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
//! with each product a [`Complex::mul_fma`] (one rounded cross-product,
//! one single-rounded fused multiply-add per component). A gate whose
//! four entries all have an imaginary part of exactly `0` (H, Ry, …)
//! takes the *real-entry* kernel instead: per component `r0·a0 + r1·a1`,
//! two rounded products and one add. With `m.im == 0` the cross-product
//! of `mul_fma` is a zero, so `mul_fma` rounds exactly once per
//! component and the two expressions are equal under IEEE `==`.
//!
//! The run kernels exist in three instantiations of one generic body
//! (`Kernels`), chosen at runtime:
//!
//! * plain scalar code;
//! * AVX2/FMA — complex multiplication as shuffle + `vfmaddsub231pd`,
//!   two amplitudes per 256-bit register;
//! * AVX-512F — the same instruction sequence, four amplitudes per
//!   512-bit register, with the AVX2 kernel finishing pieces shorter
//!   than a register.
//!
//! Every instantiation performs the *identical* floating-point operation
//! sequence per amplitude, so all three are **bit-identical** —
//! `tests/fusion_agreement.rs` enforces this with exact `==` comparisons
//! under the `QDT_SIMD` overrides. Dispatch never affects results, only
//! speed. The broadcast registers of an update are built once per
//! planned op, not once per run or repetition.
//!
//! # Lanes and tiles
//!
//! Runs are unit-stride, so an op whose amplitude set depends on a low
//! index bit cannot skip amplitudes without breaking the stride or
//! splitting into tiny runs. Instead such an op carries one update per
//! *lane*: the identity (or a factor of exactly 1) for the amplitudes it
//! must leave alone. Pair updates have two lanes, selected by index
//! bit 0 (a control on it). Diagonal updates have a *tile* of
//! 8 lanes, selected by index bits 0–2: controls and a diagonal
//! target on those bits fold into an 8-entry factor table, so every
//! diagonal run in an index space of 8 or more amplitudes is
//! tile-aligned and at least 8 long. A multiplication by exactly `1`
//! and an addition of an exact `0` can change only the sign of a zero,
//! so the result is still equal under IEEE `==` to skipping those
//! amplitudes (DESIGN.md §16).
//!
//! # Dispatch
//!
//! [`simd_level`] detects AVX-512F, AVX2 and FMA at runtime (cached
//! after the first query). The `QDT_SIMD` environment variable caps it:
//! `avx2` at AVX2, and `scalar`, `off` or `0` at the scalar path.
//! [`simd_active`] is `true` on either vector level. Non-x86_64 builds
//! always take the scalar path.

use std::ops::Range;

use qdt_complex::{Complex, Matrix};
use qdt_parallel::SharedSlice;

/// Environment variable capping SIMD dispatch: `avx2` keeps the AVX2
/// kernels on an AVX-512 host, and `scalar`, `off` or `0` force the
/// scalar kernels (used by the CI fallback jobs and the bit-identity
/// tests).
pub const SIMD_ENV: &str = "QDT_SIMD";

/// The instantiation of the run kernels a gate application runs
/// through; every level computes bit-identical results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Plain scalar code (no vector extension, or [`SIMD_ENV`] forced).
    Scalar = 0,
    /// AVX2 + FMA: two amplitudes per register.
    Avx2 = 1,
    /// AVX-512F (with AVX2 + FMA): four amplitudes per register.
    Avx512 = 2,
}

/// The kernel level the next gate application will use: the best level
/// the CPU reports at runtime, capped by [`SIMD_ENV`].
#[must_use]
pub fn simd_level() -> SimdLevel {
    let detected = detected_level();
    let Ok(v) = std::env::var(SIMD_ENV) else {
        return detected;
    };
    match v.trim().to_ascii_lowercase().as_str() {
        "scalar" | "off" | "0" => SimdLevel::Scalar,
        "avx2" => detected.min(SimdLevel::Avx2),
        _ => detected,
    }
}

/// Whether the vectorized kernels will be used for the next gate
/// application: AVX2+FMA (or AVX-512F) detected at runtime and not
/// overridden via [`SIMD_ENV`].
#[must_use]
pub fn simd_active() -> bool {
    simd_level() != SimdLevel::Scalar
}

/// Cached runtime CPU-feature check.
fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            let avx2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
                SimdLevel::Avx512
            } else if avx2 {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
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

/// The real parts of a 2×2 gate whose four entries all have an
/// imaginary part of exactly `0`, for the real-entry pair kernels.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RealPair {
    /// Row 0: `b0 = r00·a0 + r01·a1`.
    pub r00: f64,
    /// Row 0, column 1.
    pub r01: f64,
    /// Row 1: `b1 = r10·a0 + r11·a1`.
    pub r10: f64,
    /// Row 1, column 1.
    pub r11: f64,
}

impl RealPair {
    /// The identity lane of a real pair run.
    pub const IDENTITY: RealPair = RealPair {
        r00: 1.0,
        r01: 0.0,
        r10: 0.0,
        r11: 1.0,
    };

    /// The real parts of `g`, when all four imaginary parts are zero.
    pub fn of(g: &PairGate) -> Option<RealPair> {
        [g.m00, g.m01, g.m10, g.m11]
            .iter()
            .all(|m| m.im == 0.0)
            .then_some(RealPair {
                r00: g.m00.re,
                r01: g.m01.re,
                r10: g.m10.re,
                r11: g.m11.re,
            })
    }

    /// `X·G·X`, as [`PairGate::flipped`].
    pub fn flipped(&self) -> RealPair {
        RealPair {
            r00: self.r11,
            r01: self.r10,
            r10: self.r01,
            r11: self.r00,
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
/// scalar and vector kernels: per output component, one rounded
/// cross-product, one fused multiply-add ([`Complex::mul_fma`]), and a
/// plain component-wise add between the two column contributions.
#[inline(always)]
pub(crate) fn pair_update(g: &PairGate, a0: Complex, a1: Complex) -> (Complex, Complex) {
    (
        g.m00.mul_fma(a0) + g.m01.mul_fma(a1),
        g.m10.mul_fma(a0) + g.m11.mul_fma(a1),
    )
}

/// The real-entry pair update shared by the scalar and vector kernels:
/// per output component two rounded products and one add. Equal under
/// `==` to [`pair_update`] on the same gate (see the module docs).
#[inline(always)]
pub(crate) fn real_pair_update(g: &RealPair, a0: Complex, a1: Complex) -> (Complex, Complex) {
    (
        Complex::new(g.r00 * a0.re + g.r01 * a1.re, g.r00 * a0.im + g.r01 * a1.im),
        Complex::new(g.r10 * a0.re + g.r11 * a1.re, g.r10 * a0.im + g.r11 * a1.im),
    )
}

/// Lanes of a diagonal update's factor table: index bits 0–2.
pub(crate) const TILE: usize = 8;

/// What a run does to its amplitudes. Index `i` of a pair run uses lane
/// `i & 1` of a two-lane update, and amplitude `i` of a scale run uses
/// lane `i & (TILE - 1)` of its table; a run whose lanes differ always
/// starts at an index whose lane bits are clear, so lane `l` is the
/// amplitude whose low index bits are `l`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Update {
    /// The full 2×2 on pairs `(o0 + i, o1 + i)`, one gate per lane.
    Pairs([PairGate; 2]),
    /// [`Update::Pairs`] with real entries: the real-entry kernel.
    RealPairs([RealPair; 2]),
    /// The full 2×2 on pairs `(o0 + 2i, o0 + 2i + 1)`: a gate on bit 0.
    Interleaved(PairGate),
    /// [`Update::Interleaved`] with real entries.
    RealInterleaved(RealPair),
    /// Exchange pairs `(o0 + i, o1 + i)` (swaps, and `X` with unit
    /// entries): pure moves.
    Swap,
    /// Exchange pairs `(o0 + 2i, o0 + 2i + 1)`: an `X`-shaped gate on
    /// bit 0, a pure move.
    SwapInterleaved,
    /// Multiply amplitude `o0 + i` by its lane's factor (diagonal gates).
    Scale([Complex; TILE]),
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
    /// The update with its lanes renumbered for a gate whose own bits in
    /// `bits` (lane-selecting bits only) have their stored values
    /// flipped: lane `l` takes what lane `l ^ bits` had, and a gate on
    /// bit 0 becomes `X·G·X`.
    fn flip_lanes(self, bits: usize) -> Update {
        let bit0 = bits & 1 != 0;
        match self {
            Update::Pairs([l0, l1]) if bit0 => Update::Pairs([l1, l0]),
            Update::RealPairs([l0, l1]) if bit0 => Update::RealPairs([l1, l0]),
            Update::Interleaved(g) if bit0 => Update::Interleaved(g.flipped()),
            Update::RealInterleaved(g) if bit0 => Update::RealInterleaved(g.flipped()),
            Update::Scale(t) => Update::Scale(std::array::from_fn(|l| t[l ^ bits])),
            other => other,
        }
    }
}

impl RunSpec {
    /// The same gate on a state whose stored bits in `mask` are flipped
    /// (`mask` holds only this gate's own bits). A flipped control or
    /// diagonal target above the lanes requires the opposite value, a
    /// flipped pair side exchanges `o0` and `o1` (the amplitudes meet
    /// the same expression in the same order), and a flipped lane bit
    /// renumbers the lanes (see [`Update`]). Nothing is recomputed, so
    /// every amplitude receives the arithmetic it would receive
    /// unflipped.
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
    /// its lanes renumbered for the flipped bits of `mask` that select
    /// lanes rather than runs.
    pub(crate) fn update_flipped(&self, mask: usize, u: Update) -> Update {
        u.flip_lanes(mask & !self.fixed & (TILE - 1))
    }
}

/// A diagonal update's factor table: lane `l` fails a control of
/// `cmask` on the tile's bits → exactly 1, else `m1` where `l` has the
/// target bit `tbit` set and `m0` where not (`tbit` above the tile
/// selects `m0` everywhere).
fn factor_table(cmask: usize, tbit: usize, m0: Complex, m1: Complex) -> [Complex; TILE] {
    let lane_controls = cmask & (TILE - 1);
    std::array::from_fn(|l| {
        if l & lane_controls != lane_controls {
            Complex::ONE
        } else if l & tbit != 0 {
            m1
        } else {
            m0
        }
    })
}

/// The runs of a gate `g` on target bit `tbit` with control mask
/// `cmask` in an index space whose low bits select lanes (the whole
/// state, or a fused block's local indices), specialised on the matrix
/// shape (DESIGN.md §16):
///
/// * diagonal — scale only the amplitudes that pass the controls, and
///   only the sides whose entry is not exactly 1 (no pair update at
///   all); controls and a target on bits 0–2 are table lanes;
/// * `X`-shaped (zero diagonal, unit anti-diagonal) — pure moves, also
///   on bit 0;
/// * real entries — the real-entry kernel;
/// * a gate on bit 0 — interleaved pairs;
/// * otherwise the full 2×2 on pair runs.
pub(crate) fn gate_runs(tbit: usize, cmask: usize, g: &PairGate) -> [Option<RunSpec>; 2] {
    let spec = |fixed, value, sides, update| {
        Some(RunSpec {
            fixed,
            value,
            sides,
            update,
        })
    };
    if g.is_diagonal() {
        let run_controls = cmask & !(TILE - 1);
        if tbit < TILE {
            // Both sides in one table: the lanes hold the entries.
            if is_one(g.m00) && is_one(g.m11) {
                return [None, None];
            }
            let table = factor_table(cmask, tbit, g.m00, g.m11);
            return [
                spec(run_controls, run_controls, (0, 0), Update::Scale(table)),
                None,
            ];
        }
        return [(0, g.m00), (tbit, g.m11)].map(|(side, m)| {
            let update = Update::Scale(factor_table(cmask, 0, m, m));
            spec(run_controls | tbit, run_controls | side, (0, 0), update).filter(|_| !is_one(m))
        });
    }
    // A control on bit 0 is a lane of the pair update.
    let (cmask, on_bit0) = (cmask & !1, cmask & 1 != 0);
    let x_shaped = is_zero(g.m00) && is_zero(g.m11) && is_one(g.m01) && is_one(g.m10);
    let real = RealPair::of(g);
    if tbit == 1 {
        let update = match real {
            _ if x_shaped => Update::SwapInterleaved,
            Some(r) => Update::RealInterleaved(r),
            None => Update::Interleaved(*g),
        };
        return [spec(cmask, cmask, (0, 0), update), None];
    }
    let update = match real {
        _ if x_shaped && !on_bit0 => Update::Swap,
        Some(r) if on_bit0 => Update::RealPairs([RealPair::IDENTITY, r]),
        Some(r) => Update::RealPairs([r, r]),
        None if on_bit0 => Update::Pairs([PairGate::IDENTITY, *g]),
        None => Update::Pairs([*g, *g]),
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
    let factor = |m: Complex| (!is_one(m)).then(|| Update::Scale(factor_table(cmask, 0, m, m)));
    let updates = [factor(g.m00), factor(g.m11)];
    let run_controls = cmask & !(TILE - 1);
    let spec = RunSpec {
        fixed: run_controls,
        value: run_controls,
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
/// straight loop, and its broadcast constants are built once per call
/// — once per planned op, not per run or repetition.
///
/// # Safety
///
/// Every index a run touches must be in bounds and owned by the caller
/// under its disjoint partition. `K` must be [`Scalar`], or this must
/// only be inlined into a function compiled with `K`'s instruction set.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) unsafe fn apply_runs<K: Kernels>(
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
    // SAFETY (constants): the caller's instruction-set contract.
    match u {
        Update::Pairs(g) => {
            let k = unsafe { K::pairs(g) };
            each!(|p0, p1, len| K::pairs_run(&k, p0, p1, len));
        }
        Update::RealPairs(g) => {
            let k = unsafe { K::real_pairs(g) };
            each!(|p0, p1, len| K::real_pairs_run(&k, p0, p1, len));
        }
        Update::Interleaved(g) => {
            let k = unsafe { K::interleaved(g) };
            each!(|p0, p1, len| K::interleaved_run(&k, p0, len));
        }
        Update::RealInterleaved(g) => {
            let k = unsafe { K::real_interleaved(g) };
            each!(|p0, p1, len| K::real_interleaved_run(&k, p0, len));
        }
        Update::Swap => each!(|p0, p1, len| K::swap_run(p0, p1, len)),
        Update::SwapInterleaved => each!(|p0, p1, len| K::swap_interleaved_run(p0, len)),
        Update::Scale(t) => {
            let k = unsafe { K::scale(t) };
            each!(|p0, p1, len| K::scale_run(&k, p0, len));
        }
    }
}

/// One instantiation of the run kernels ([`Scalar`], and on x86-64 the
/// AVX2 and AVX-512 ones): per update kind, the constants built once per
/// planned op (`pairs`, `scale`, …) and the loop over one run
/// (`pairs_run`, `scale_run`, …). Pair runs count pairs, interleaved
/// runs count pairs of adjacent amplitudes, scale runs count amplitudes.
///
/// # Safety
///
/// For every method: the pointers must cover the run and be owned by
/// the caller, and a vector instantiation may only execute inside a
/// function compiled with its instruction set.
#[allow(unsafe_code, clippy::missing_safety_doc)]
pub(crate) trait Kernels {
    /// Constants of an [`Update::Pairs`].
    type Pairs;
    /// Constants of an [`Update::RealPairs`].
    type RealPairs;
    /// Constants of an [`Update::Interleaved`].
    type Interleaved;
    /// Constants of an [`Update::RealInterleaved`].
    type RealInterleaved;
    /// Constants of an [`Update::Scale`].
    type Scale;

    unsafe fn pairs(g: &[PairGate; 2]) -> Self::Pairs;
    unsafe fn pairs_run(k: &Self::Pairs, p0: *mut Complex, p1: *mut Complex, len: usize);
    unsafe fn real_pairs(g: &[RealPair; 2]) -> Self::RealPairs;
    unsafe fn real_pairs_run(k: &Self::RealPairs, p0: *mut Complex, p1: *mut Complex, len: usize);
    unsafe fn interleaved(g: &PairGate) -> Self::Interleaved;
    unsafe fn interleaved_run(k: &Self::Interleaved, p: *mut Complex, pairs: usize);
    unsafe fn real_interleaved(g: &RealPair) -> Self::RealInterleaved;
    unsafe fn real_interleaved_run(k: &Self::RealInterleaved, p: *mut Complex, pairs: usize);
    unsafe fn swap_run(p0: *mut Complex, p1: *mut Complex, len: usize);
    unsafe fn swap_interleaved_run(p: *mut Complex, pairs: usize);
    unsafe fn scale(t: &[Complex; TILE]) -> Self::Scale;
    unsafe fn scale_run(k: &Self::Scale, p: *mut Complex, len: usize);
}

/// The scalar instantiation; its `*_from` loops also finish the pieces
/// a vector kernel leaves over.
pub(crate) struct Scalar;

#[allow(unsafe_code)]
mod scalar {
    //! The scalar loops, each starting at unit `i` of its run.
    //!
    //! # Safety
    //!
    //! Every function requires that units `i..len` of its run (both
    //! sides of a pair run) lie in memory the caller owns.
    use super::{pair_update, real_pair_update, PairGate, RealPair, TILE};
    use qdt_complex::Complex;

    /// Pairs `(p0[i], p1[i])`, lane `i & 1`, from `i` to `len`.
    #[inline(always)]
    pub(super) unsafe fn pairs_from(
        g: &[PairGate; 2],
        p0: *mut Complex,
        p1: *mut Complex,
        i: usize,
        len: usize,
    ) {
        for i in i..len {
            // SAFETY: caller contract.
            unsafe {
                let (b0, b1) = pair_update(&g[i & 1], *p0.add(i), *p1.add(i));
                *p0.add(i) = b0;
                *p1.add(i) = b1;
            }
        }
    }

    #[inline(always)]
    pub(super) unsafe fn real_pairs_from(
        g: &[RealPair; 2],
        p0: *mut Complex,
        p1: *mut Complex,
        i: usize,
        len: usize,
    ) {
        for i in i..len {
            // SAFETY: caller contract.
            unsafe {
                let (b0, b1) = real_pair_update(&g[i & 1], *p0.add(i), *p1.add(i));
                *p0.add(i) = b0;
                *p1.add(i) = b1;
            }
        }
    }

    #[inline(always)]
    pub(super) unsafe fn swap_from(p0: *mut Complex, p1: *mut Complex, i: usize, len: usize) {
        // SAFETY: caller contract (the two sides of a run never overlap).
        unsafe { std::ptr::swap_nonoverlapping(p0.add(i), p1.add(i), len - i) };
    }

    /// Amplitudes `p[i..len]`, each scaled by its lane's factor.
    #[inline(always)]
    pub(super) unsafe fn scale_from(t: &[Complex; TILE], p: *mut Complex, i: usize, len: usize) {
        for i in i..len {
            // SAFETY: caller contract.
            unsafe { *p.add(i) = t[i & (TILE - 1)].mul_fma(*p.add(i)) };
        }
    }
}

#[allow(unsafe_code)]
impl Kernels for Scalar {
    type Pairs = [PairGate; 2];
    type RealPairs = [RealPair; 2];
    type Interleaved = PairGate;
    type RealInterleaved = RealPair;
    type Scale = [Complex; TILE];

    #[inline(always)]
    unsafe fn pairs(g: &[PairGate; 2]) -> Self::Pairs {
        *g
    }
    #[inline(always)]
    unsafe fn pairs_run(k: &Self::Pairs, p0: *mut Complex, p1: *mut Complex, len: usize) {
        // SAFETY: caller contract.
        unsafe { scalar::pairs_from(k, p0, p1, 0, len) }
    }
    #[inline(always)]
    unsafe fn real_pairs(g: &[RealPair; 2]) -> Self::RealPairs {
        *g
    }
    #[inline(always)]
    unsafe fn real_pairs_run(k: &Self::RealPairs, p0: *mut Complex, p1: *mut Complex, len: usize) {
        // SAFETY: caller contract.
        unsafe { scalar::real_pairs_from(k, p0, p1, 0, len) }
    }
    #[inline(always)]
    unsafe fn interleaved(g: &PairGate) -> Self::Interleaved {
        *g
    }
    #[inline(always)]
    unsafe fn interleaved_run(k: &Self::Interleaved, p: *mut Complex, pairs: usize) {
        for i in 0..pairs {
            // SAFETY: caller contract.
            unsafe {
                let (b0, b1) = pair_update(k, *p.add(2 * i), *p.add(2 * i + 1));
                *p.add(2 * i) = b0;
                *p.add(2 * i + 1) = b1;
            }
        }
    }
    #[inline(always)]
    unsafe fn real_interleaved(g: &RealPair) -> Self::RealInterleaved {
        *g
    }
    #[inline(always)]
    unsafe fn real_interleaved_run(k: &Self::RealInterleaved, p: *mut Complex, pairs: usize) {
        for i in 0..pairs {
            // SAFETY: caller contract.
            unsafe {
                let (b0, b1) = real_pair_update(k, *p.add(2 * i), *p.add(2 * i + 1));
                *p.add(2 * i) = b0;
                *p.add(2 * i + 1) = b1;
            }
        }
    }
    #[inline(always)]
    unsafe fn swap_run(p0: *mut Complex, p1: *mut Complex, len: usize) {
        // SAFETY: caller contract.
        unsafe { scalar::swap_from(p0, p1, 0, len) }
    }
    #[inline(always)]
    unsafe fn swap_interleaved_run(p: *mut Complex, pairs: usize) {
        for i in 0..pairs {
            // SAFETY: caller contract.
            unsafe { std::ptr::swap(p.add(2 * i), p.add(2 * i + 1)) };
        }
    }
    #[inline(always)]
    unsafe fn scale(t: &[Complex; TILE]) -> Self::Scale {
        *t
    }
    #[inline(always)]
    unsafe fn scale_run(k: &Self::Scale, p: *mut Complex, len: usize) {
        // SAFETY: caller contract.
        unsafe { scalar::scale_from(k, p, 0, len) }
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
            Update::Interleaved(_) | Update::RealInterleaved(_) | Update::SwapInterleaved => {
                1 << (run_log - 1)
            }
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

/// Applies `u` to runs `range` of `runs` on the shared state through the
/// kernels of `level` (the caller must have obtained it from
/// [`simd_level`]); every level is bit-identical.
///
/// Runs own disjoint index sets, so concurrent calls over disjoint
/// ranges uphold the [`SharedSlice`] contract.
pub(crate) fn apply_run_set(
    amps: &SharedSlice<'_, Complex>,
    range: Range<usize>,
    runs: &RunSet,
    u: &Update,
    level: SimdLevel,
) {
    match level {
        // SAFETY: `level` is only a vector level after the runtime
        // feature check of `simd_level`.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        SimdLevel::Avx512 => unsafe { run_set_avx512(amps, range, runs, u) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        SimdLevel::Avx2 => unsafe { run_set_avx2(amps, range, runs, u) },
        _ => run_set_body::<Scalar>(amps, range, runs, u),
    }
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
    run_set_body::<Avx2>(amps, range, runs, u);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[allow(unsafe_code)]
unsafe fn run_set_avx512(
    amps: &SharedSlice<'_, Complex>,
    range: Range<usize>,
    runs: &RunSet,
    u: &Update,
) {
    run_set_body::<Avx512>(amps, range, runs, u);
}

#[inline(always)]
fn run_set_body<K: Kernels>(
    amps: &SharedSlice<'_, Complex>,
    range: Range<usize>,
    runs: &RunSet,
    u: &Update,
) {
    let first = range.start;
    // SAFETY: run p owns the indices it expands to (distinct p expand to
    // disjoint index sets), and the caller partitions p disjointly; the
    // dispatcher only picks `K` inside its instruction set.
    #[allow(unsafe_code)]
    unsafe {
        apply_runs::<K>(amps.as_mut_ptr(), range.len(), |k| runs.run(first + k), u);
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::Avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) use avx512::Avx512;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    //! The explicit AVX2/FMA run kernels. Each processes as much of its
    //! run as fills whole registers and hands the rest to the scalar
    //! loop of [`super::scalar`]; the `*_from` loops also finish the
    //! pieces the AVX-512 kernels leave over, on the low halves of their
    //! registers.
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
    //! which rounds exactly like [`Complex::mul_fma`] per lane; a real
    //! multiplier is one `vmulpd`.
    //!
    //! # Safety
    //!
    //! These are `#[inline(always)]` without their own `target_feature`:
    //! they may only be reached from the AVX2 and AVX-512
    //! instantiations, which inline into functions compiled with AVX2
    //! and FMA enabled, and every run they touch must lie in memory the
    //! caller owns.

    use super::{scalar, Kernels, PairGate, RealPair, TILE};
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_fmaddsub_pd, _mm256_loadu2_m128d, _mm256_loadu_pd,
        _mm256_movedup_pd, _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_permute_pd, _mm256_set_pd,
        _mm256_storeu_pd,
    };

    use qdt_complex::Complex;

    /// The AVX2/FMA instantiation.
    pub(crate) struct Avx2;

    /// A complex multiplier per 128-bit lane: its real parts and its
    /// imaginary parts, each duplicated across the lane.
    pub(super) type M = (__m256d, __m256d);

    /// `m·z` per 128-bit complex lane.
    #[inline(always)]
    unsafe fn cmul(m: M, z: __m256d) -> __m256d {
        // SAFETY: pure register arithmetic; caller guarantees AVX2+FMA.
        unsafe {
            let swapped = _mm256_permute_pd(z, 0b0101);
            _mm256_fmaddsub_pd(m.0, z, _mm256_mul_pd(m.1, swapped))
        }
    }

    /// The multipliers of the two complex values in `v`: real parts
    /// and imaginary parts, each duplicated across its lane.
    #[inline(always)]
    unsafe fn dup(v: __m256d) -> M {
        // SAFETY: register shuffles.
        unsafe { (_mm256_movedup_pd(v), _mm256_permute_pd(v, 0b1111)) }
    }

    /// `[*lo, *hi]` as one register.
    #[inline(always)]
    pub(super) unsafe fn pair(lo: &Complex, hi: &Complex) -> __m256d {
        // SAFETY: two 2-f64 loads of `repr(C)` complex values.
        unsafe { _mm256_loadu2_m128d(std::ptr::from_ref(hi).cast(), std::ptr::from_ref(lo).cast()) }
    }

    /// Multipliers holding `lo` in lane 0 and `hi` in lane 1.
    #[inline(always)]
    unsafe fn lanes(lo: &Complex, hi: &Complex) -> M {
        // SAFETY: register construction.
        unsafe { dup(pair(lo, hi)) }
    }

    /// A real multiplier: `lo` for lane 0, `hi` for lane 1.
    #[inline(always)]
    pub(super) unsafe fn real_lanes(lo: f64, hi: f64) -> __m256d {
        // SAFETY: register construction.
        unsafe { _mm256_set_pd(hi, hi, lo, lo) }
    }

    /// Constants of a pair update: `m00, m01, m10, m11`, lane 0 for even
    /// and lane 1 for odd pair indices.
    pub(crate) struct Pairs {
        pub(super) m: [M; 4],
        pub(super) g: [PairGate; 2],
    }

    /// Constants of a real pair update, laid out as [`Pairs`].
    pub(crate) struct RealPairs {
        pub(super) r: [__m256d; 4],
        pub(super) g: [RealPair; 2],
    }

    /// Pairs `i..len` (`i` even) of a pair run.
    #[inline(always)]
    pub(super) unsafe fn pairs_from(
        k: &Pairs,
        p0: *mut Complex,
        p1: *mut Complex,
        mut i: usize,
        len: usize,
    ) {
        // SAFETY: the 4-f64 loads/stores cover amplitudes i and i+1 of
        // both sides, inside the run the caller owns.
        unsafe {
            let (f0, f1) = (p0.cast::<f64>(), p1.cast::<f64>());
            while i + 2 <= len {
                let v0 = _mm256_loadu_pd(f0.add(2 * i));
                let v1 = _mm256_loadu_pd(f1.add(2 * i));
                let b0 = _mm256_add_pd(cmul(k.m[0], v0), cmul(k.m[1], v1));
                let b1 = _mm256_add_pd(cmul(k.m[2], v0), cmul(k.m[3], v1));
                _mm256_storeu_pd(f0.add(2 * i), b0);
                _mm256_storeu_pd(f1.add(2 * i), b1);
                i += 2;
            }
            scalar::pairs_from(&k.g, p0, p1, i, len);
        }
    }

    /// [`pairs_from`] with real multipliers.
    #[inline(always)]
    pub(super) unsafe fn real_pairs_from(
        k: &RealPairs,
        p0: *mut Complex,
        p1: *mut Complex,
        mut i: usize,
        len: usize,
    ) {
        // SAFETY: as `pairs_from`.
        unsafe {
            let (f0, f1) = (p0.cast::<f64>(), p1.cast::<f64>());
            while i + 2 <= len {
                let v0 = _mm256_loadu_pd(f0.add(2 * i));
                let v1 = _mm256_loadu_pd(f1.add(2 * i));
                let b0 = _mm256_add_pd(_mm256_mul_pd(k.r[0], v0), _mm256_mul_pd(k.r[1], v1));
                let b1 = _mm256_add_pd(_mm256_mul_pd(k.r[2], v0), _mm256_mul_pd(k.r[3], v1));
                _mm256_storeu_pd(f0.add(2 * i), b0);
                _mm256_storeu_pd(f1.add(2 * i), b1);
                i += 2;
            }
            scalar::real_pairs_from(&k.g, p0, p1, i, len);
        }
    }

    /// Pairs `i..pairs` of a gate on bit 0 with the matrix columns
    /// `c = [[m00, m10], [m01, m11]]`: `(a0, a1)` of pair `i` sit at
    /// `2i, 2i+1`, so one 256-bit load covers the whole pair.
    #[inline(always)]
    pub(super) unsafe fn interleaved_from(c: &[M; 2], p: *mut Complex, i: usize, pairs: usize) {
        // SAFETY: pair i owns complex slots 2i and 2i+1 — exactly the
        // four f64 lanes loaded and stored here.
        unsafe {
            let f = p.cast::<f64>();
            for i in i..pairs {
                let v = _mm256_loadu_pd(f.add(4 * i));
                let a0 = _mm256_permute2f128_pd(v, v, 0x00); // [a0, a0]
                let a1 = _mm256_permute2f128_pd(v, v, 0x11); // [a1, a1]
                let b = _mm256_add_pd(cmul(c[0], a0), cmul(c[1], a1));
                _mm256_storeu_pd(f.add(4 * i), b);
            }
        }
    }

    /// [`interleaved_from`] with real columns.
    #[inline(always)]
    pub(super) unsafe fn real_interleaved_from(
        c: &[__m256d; 2],
        p: *mut Complex,
        i: usize,
        pairs: usize,
    ) {
        // SAFETY: as `interleaved_from`.
        unsafe {
            let f = p.cast::<f64>();
            for i in i..pairs {
                let v = _mm256_loadu_pd(f.add(4 * i));
                let a0 = _mm256_permute2f128_pd(v, v, 0x00);
                let a1 = _mm256_permute2f128_pd(v, v, 0x11);
                let b = _mm256_add_pd(_mm256_mul_pd(c[0], a0), _mm256_mul_pd(c[1], a1));
                _mm256_storeu_pd(f.add(4 * i), b);
            }
        }
    }

    /// Moves only: two amplitudes of each side per register.
    #[inline(always)]
    pub(super) unsafe fn swap_from(p0: *mut Complex, p1: *mut Complex, mut i: usize, len: usize) {
        // SAFETY: the 4-f64 loads/stores cover amplitudes i and i+1 of
        // both sides, inside the run the caller owns.
        unsafe {
            let (f0, f1) = (p0.cast::<f64>(), p1.cast::<f64>());
            while i + 2 <= len {
                let v0 = _mm256_loadu_pd(f0.add(2 * i));
                let v1 = _mm256_loadu_pd(f1.add(2 * i));
                _mm256_storeu_pd(f0.add(2 * i), v1);
                _mm256_storeu_pd(f1.add(2 * i), v0);
                i += 2;
            }
            scalar::swap_from(p0, p1, i, len);
        }
    }

    /// One 256-bit load holds a whole pair; exchanging its 128-bit
    /// halves is the move.
    #[inline(always)]
    pub(super) unsafe fn swap_interleaved_from(p: *mut Complex, i: usize, pairs: usize) {
        // SAFETY: pair i owns complex slots 2i and 2i+1 — exactly the
        // four f64 lanes loaded and stored here.
        unsafe {
            let f = p.cast::<f64>();
            for i in i..pairs {
                let v = _mm256_loadu_pd(f.add(4 * i));
                _mm256_storeu_pd(f.add(4 * i), _mm256_permute2f128_pd(v, v, 0x01));
            }
        }
    }

    /// A factor table as four registers of two lanes each.
    pub(crate) struct Scale {
        m: [M; TILE / 2],
        t: [Complex; TILE],
    }

    impl Kernels for Avx2 {
        type Pairs = Pairs;
        type RealPairs = RealPairs;
        type Interleaved = [M; 2];
        type RealInterleaved = [__m256d; 2];
        type Scale = Scale;

        #[inline(always)]
        unsafe fn pairs(g: &[PairGate; 2]) -> Pairs {
            let at = |m: fn(&PairGate) -> &Complex| {
                // SAFETY: register construction under the caller's
                // instruction-set contract.
                unsafe { lanes(m(&g[0]), m(&g[1])) }
            };
            Pairs {
                m: [
                    at(|g| &g.m00),
                    at(|g| &g.m01),
                    at(|g| &g.m10),
                    at(|g| &g.m11),
                ],
                g: *g,
            }
        }
        #[inline(always)]
        unsafe fn pairs_run(k: &Pairs, p0: *mut Complex, p1: *mut Complex, len: usize) {
            // SAFETY: caller contract.
            unsafe { pairs_from(k, p0, p1, 0, len) }
        }
        #[inline(always)]
        unsafe fn real_pairs(g: &[RealPair; 2]) -> RealPairs {
            let at = |r: fn(&RealPair) -> f64| {
                // SAFETY: as in `pairs`.
                unsafe { real_lanes(r(&g[0]), r(&g[1])) }
            };
            RealPairs {
                r: [at(|g| g.r00), at(|g| g.r01), at(|g| g.r10), at(|g| g.r11)],
                g: *g,
            }
        }
        #[inline(always)]
        unsafe fn real_pairs_run(k: &RealPairs, p0: *mut Complex, p1: *mut Complex, len: usize) {
            // SAFETY: caller contract.
            unsafe { real_pairs_from(k, p0, p1, 0, len) }
        }
        #[inline(always)]
        unsafe fn interleaved(g: &PairGate) -> [M; 2] {
            // SAFETY: caller contract.
            unsafe { [lanes(&g.m00, &g.m10), lanes(&g.m01, &g.m11)] }
        }
        #[inline(always)]
        unsafe fn interleaved_run(k: &[M; 2], p: *mut Complex, pairs: usize) {
            // SAFETY: caller contract.
            unsafe { interleaved_from(k, p, 0, pairs) }
        }
        #[inline(always)]
        unsafe fn real_interleaved(g: &RealPair) -> [__m256d; 2] {
            // SAFETY: caller contract.
            unsafe { [real_lanes(g.r00, g.r10), real_lanes(g.r01, g.r11)] }
        }
        #[inline(always)]
        unsafe fn real_interleaved_run(k: &[__m256d; 2], p: *mut Complex, pairs: usize) {
            // SAFETY: caller contract.
            unsafe { real_interleaved_from(k, p, 0, pairs) }
        }
        #[inline(always)]
        unsafe fn swap_run(p0: *mut Complex, p1: *mut Complex, len: usize) {
            // SAFETY: caller contract.
            unsafe { swap_from(p0, p1, 0, len) }
        }
        #[inline(always)]
        unsafe fn swap_interleaved_run(p: *mut Complex, pairs: usize) {
            // SAFETY: caller contract.
            unsafe { swap_interleaved_from(p, 0, pairs) }
        }
        #[inline(always)]
        unsafe fn scale(t: &[Complex; TILE]) -> Scale {
            Scale {
                // SAFETY: caller contract; lanes 2j and 2j+1 are adjacent.
                m: std::array::from_fn(|j| unsafe {
                    dup(_mm256_loadu_pd(t[2 * j..].as_ptr().cast()))
                }),
                t: *t,
            }
        }
        /// Whole tiles first, then (in a run shorter than a tile) two
        /// lanes per register.
        #[inline(always)]
        unsafe fn scale_run(k: &Scale, p: *mut Complex, len: usize) {
            // SAFETY: every load/store covers amplitudes inside the run
            // the caller owns.
            unsafe {
                let f = p.cast::<f64>();
                let mut i = 0;
                while i + TILE <= len {
                    for (j, &m) in k.m.iter().enumerate() {
                        let at = f.add(2 * (i + 2 * j));
                        _mm256_storeu_pd(at, cmul(m, _mm256_loadu_pd(at)));
                    }
                    i += TILE;
                }
                while i + 2 <= len {
                    let at = f.add(2 * i);
                    _mm256_storeu_pd(at, cmul(k.m[(i % TILE) / 2], _mm256_loadu_pd(at)));
                    i += 2;
                }
                scalar::scale_from(&k.t, p, i, len);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    //! The AVX-512F run kernels: the AVX2 instruction sequence on
    //! 512-bit registers, four amplitudes each (`[z0, z1, z2, z3]`, one
    //! per 128-bit lane). Each processes as much of its run as fills
    //! whole registers and hands the rest to the AVX2 loop, on the low
    //! 256 bits of the same constants (which round the same per lane).
    //!
    //! # Safety
    //!
    //! Only reached from the AVX-512 instantiation, which inlines into
    //! functions compiled with AVX-512F, AVX2 and FMA enabled; every run
    //! must lie in memory the caller owns.

    use super::avx2::{self, M};
    use super::{scalar, Kernels, PairGate, RealPair, TILE};
    use std::arch::x86_64::{
        __m256d, __m512d, _mm512_add_pd, _mm512_broadcast_f64x4, _mm512_castpd512_pd256,
        _mm512_fmaddsub_pd, _mm512_loadu_pd, _mm512_movedup_pd, _mm512_mul_pd, _mm512_permute_pd,
        _mm512_shuffle_f64x2, _mm512_storeu_pd,
    };

    use qdt_complex::Complex;

    /// The AVX-512F instantiation.
    pub(crate) struct Avx512;

    /// A complex multiplier per 128-bit lane, as in the AVX2 kernels.
    type Z = (__m512d, __m512d);

    /// `m·z` per 128-bit complex lane: the AVX2 sequence, four lanes.
    #[inline(always)]
    unsafe fn cmul(m: Z, z: __m512d) -> __m512d {
        // SAFETY: pure register arithmetic; caller guarantees AVX-512F.
        unsafe {
            let swapped = _mm512_permute_pd::<0b0101_0101>(z);
            _mm512_fmaddsub_pd(m.0, z, _mm512_mul_pd(m.1, swapped))
        }
    }

    /// The multipliers of the four complex values in `v`.
    #[inline(always)]
    unsafe fn dup(v: __m512d) -> Z {
        // SAFETY: register shuffles.
        unsafe { (_mm512_movedup_pd(v), _mm512_permute_pd::<0b1111_1111>(v)) }
    }

    /// Multipliers holding `[lo, hi, lo, hi]`.
    #[inline(always)]
    unsafe fn alternating(lo: &Complex, hi: &Complex) -> Z {
        // SAFETY: register construction.
        unsafe { dup(_mm512_broadcast_f64x4(avx2::pair(lo, hi))) }
    }

    /// A real multiplier holding `[lo, hi, lo, hi]`.
    #[inline(always)]
    unsafe fn real_alternating(lo: f64, hi: f64) -> __m512d {
        // SAFETY: register construction.
        unsafe { _mm512_broadcast_f64x4(avx2::real_lanes(lo, hi)) }
    }

    /// The low 256 bits: lanes 0 and 1.
    #[inline(always)]
    unsafe fn low(v: __m512d) -> __m256d {
        // SAFETY: a register reinterpretation.
        unsafe { _mm512_castpd512_pd256(v) }
    }

    /// [`low`] of both parts of a multiplier.
    #[inline(always)]
    unsafe fn low_m(m: Z) -> M {
        // SAFETY: as `low`.
        unsafe { (low(m.0), low(m.1)) }
    }

    /// Pair-update constants, lanes alternating as in the AVX2 kernel,
    /// and the AVX2 kernel's for the pieces shorter than a register.
    pub(crate) struct Pairs {
        m: [Z; 4],
        y: avx2::Pairs,
    }

    /// Real pair-update constants, laid out as [`Pairs`].
    pub(crate) struct RealPairs {
        r: [__m512d; 4],
        y: avx2::RealPairs,
    }

    /// Columns `[m00, m10, m00, m10]` and `[m01, m11, m01, m11]` (two
    /// pairs per register), and their low halves for a last lone pair.
    pub(crate) struct Interleaved {
        c: [Z; 2],
        y: [M; 2],
    }

    /// Real columns, laid out as [`Interleaved`].
    pub(crate) struct RealInterleaved {
        c: [__m512d; 2],
        y: [__m256d; 2],
    }

    /// A factor table as two registers of four lanes each.
    pub(crate) struct Scale {
        m: [Z; TILE / 4],
        t: [Complex; TILE],
    }

    /// The 128-bit lanes `[z0, z0, z2, z2]` and `[z1, z1, z3, z3]` of
    /// `v`: the `a0` and `a1` of two interleaved pairs, each broadcast
    /// over its pair's two lanes.
    #[inline(always)]
    unsafe fn split_pairs(v: __m512d) -> (__m512d, __m512d) {
        // SAFETY: register shuffles.
        unsafe {
            (
                _mm512_shuffle_f64x2::<0b10_10_00_00>(v, v),
                _mm512_shuffle_f64x2::<0b11_11_01_01>(v, v),
            )
        }
    }

    impl Kernels for Avx512 {
        type Pairs = Pairs;
        type RealPairs = RealPairs;
        type Interleaved = Interleaved;
        type RealInterleaved = RealInterleaved;
        type Scale = Scale;

        #[inline(always)]
        unsafe fn pairs(g: &[PairGate; 2]) -> Pairs {
            let at = |m: fn(&PairGate) -> &Complex| {
                // SAFETY: register construction under the caller's
                // instruction-set contract.
                unsafe { alternating(m(&g[0]), m(&g[1])) }
            };
            let m = [
                at(|g| &g.m00),
                at(|g| &g.m01),
                at(|g| &g.m10),
                at(|g| &g.m11),
            ];
            Pairs {
                // SAFETY: as above.
                y: avx2::Pairs {
                    m: m.map(|m| unsafe { low_m(m) }),
                    g: *g,
                },
                m,
            }
        }

        #[inline(always)]
        unsafe fn pairs_run(k: &Pairs, p0: *mut Complex, p1: *mut Complex, len: usize) {
            // SAFETY: the 8-f64 loads/stores cover amplitudes i..i+4 of
            // both sides, inside the run the caller owns.
            unsafe {
                let (f0, f1) = (p0.cast::<f64>(), p1.cast::<f64>());
                let mut i = 0;
                while i + 4 <= len {
                    let v0 = _mm512_loadu_pd(f0.add(2 * i));
                    let v1 = _mm512_loadu_pd(f1.add(2 * i));
                    let b0 = _mm512_add_pd(cmul(k.m[0], v0), cmul(k.m[1], v1));
                    let b1 = _mm512_add_pd(cmul(k.m[2], v0), cmul(k.m[3], v1));
                    _mm512_storeu_pd(f0.add(2 * i), b0);
                    _mm512_storeu_pd(f1.add(2 * i), b1);
                    i += 4;
                }
                avx2::pairs_from(&k.y, p0, p1, i, len);
            }
        }

        #[inline(always)]
        unsafe fn real_pairs(g: &[RealPair; 2]) -> RealPairs {
            let at = |r: fn(&RealPair) -> f64| {
                // SAFETY: as in `pairs`.
                unsafe { real_alternating(r(&g[0]), r(&g[1])) }
            };
            let r = [at(|g| g.r00), at(|g| g.r01), at(|g| g.r10), at(|g| g.r11)];
            RealPairs {
                // SAFETY: as above.
                y: avx2::RealPairs {
                    r: r.map(|r| unsafe { low(r) }),
                    g: *g,
                },
                r,
            }
        }

        #[inline(always)]
        unsafe fn real_pairs_run(k: &RealPairs, p0: *mut Complex, p1: *mut Complex, len: usize) {
            // SAFETY: as `pairs_run`.
            unsafe {
                let (f0, f1) = (p0.cast::<f64>(), p1.cast::<f64>());
                let mut i = 0;
                while i + 4 <= len {
                    let v0 = _mm512_loadu_pd(f0.add(2 * i));
                    let v1 = _mm512_loadu_pd(f1.add(2 * i));
                    let b0 = _mm512_add_pd(_mm512_mul_pd(k.r[0], v0), _mm512_mul_pd(k.r[1], v1));
                    let b1 = _mm512_add_pd(_mm512_mul_pd(k.r[2], v0), _mm512_mul_pd(k.r[3], v1));
                    _mm512_storeu_pd(f0.add(2 * i), b0);
                    _mm512_storeu_pd(f1.add(2 * i), b1);
                    i += 4;
                }
                avx2::real_pairs_from(&k.y, p0, p1, i, len);
            }
        }

        #[inline(always)]
        unsafe fn interleaved(g: &PairGate) -> Interleaved {
            // SAFETY: caller contract.
            unsafe {
                let c = [alternating(&g.m00, &g.m10), alternating(&g.m01, &g.m11)];
                Interleaved {
                    y: c.map(|c| low_m(c)),
                    c,
                }
            }
        }

        #[inline(always)]
        unsafe fn interleaved_run(k: &Interleaved, p: *mut Complex, pairs: usize) {
            // SAFETY: pairs i and i+1 own complex slots 2i..2i+4 — exactly
            // the eight f64 lanes loaded and stored here.
            unsafe {
                let f = p.cast::<f64>();
                let mut i = 0;
                while i + 2 <= pairs {
                    let (a0, a1) = split_pairs(_mm512_loadu_pd(f.add(4 * i)));
                    let b = _mm512_add_pd(cmul(k.c[0], a0), cmul(k.c[1], a1));
                    _mm512_storeu_pd(f.add(4 * i), b);
                    i += 2;
                }
                avx2::interleaved_from(&k.y, p, i, pairs);
            }
        }

        #[inline(always)]
        unsafe fn real_interleaved(g: &RealPair) -> RealInterleaved {
            // SAFETY: caller contract.
            unsafe {
                let c = [
                    real_alternating(g.r00, g.r10),
                    real_alternating(g.r01, g.r11),
                ];
                RealInterleaved {
                    y: c.map(|c| low(c)),
                    c,
                }
            }
        }

        #[inline(always)]
        unsafe fn real_interleaved_run(k: &RealInterleaved, p: *mut Complex, pairs: usize) {
            // SAFETY: as `interleaved_run`.
            unsafe {
                let f = p.cast::<f64>();
                let mut i = 0;
                while i + 2 <= pairs {
                    let (a0, a1) = split_pairs(_mm512_loadu_pd(f.add(4 * i)));
                    let b = _mm512_add_pd(_mm512_mul_pd(k.c[0], a0), _mm512_mul_pd(k.c[1], a1));
                    _mm512_storeu_pd(f.add(4 * i), b);
                    i += 2;
                }
                avx2::real_interleaved_from(&k.y, p, i, pairs);
            }
        }

        #[inline(always)]
        unsafe fn swap_run(p0: *mut Complex, p1: *mut Complex, len: usize) {
            // SAFETY: the 8-f64 loads/stores cover amplitudes i..i+4 of
            // both sides, inside the run the caller owns.
            unsafe {
                let (f0, f1) = (p0.cast::<f64>(), p1.cast::<f64>());
                let mut i = 0;
                while i + 4 <= len {
                    let v0 = _mm512_loadu_pd(f0.add(2 * i));
                    let v1 = _mm512_loadu_pd(f1.add(2 * i));
                    _mm512_storeu_pd(f0.add(2 * i), v1);
                    _mm512_storeu_pd(f1.add(2 * i), v0);
                    i += 4;
                }
                avx2::swap_from(p0, p1, i, len);
            }
        }

        #[inline(always)]
        unsafe fn swap_interleaved_run(p: *mut Complex, pairs: usize) {
            // SAFETY: as `interleaved_run`.
            unsafe {
                let f = p.cast::<f64>();
                let mut i = 0;
                while i + 2 <= pairs {
                    let v = _mm512_loadu_pd(f.add(4 * i));
                    // 128-bit lanes [z1, z0, z3, z2].
                    _mm512_storeu_pd(f.add(4 * i), _mm512_shuffle_f64x2::<0b10_11_00_01>(v, v));
                    i += 2;
                }
                avx2::swap_interleaved_from(p, i, pairs);
            }
        }

        #[inline(always)]
        unsafe fn scale(t: &[Complex; TILE]) -> Scale {
            // SAFETY: caller contract.
            unsafe {
                // Lanes 0–3 and 4–7 are adjacent in the table.
                let quad = |j: usize| dup(_mm512_loadu_pd(t[4 * j..].as_ptr().cast()));
                Scale {
                    m: [quad(0), quad(1)],
                    t: *t,
                }
            }
        }

        /// Whole tiles; a run shorter than a tile (an index space of
        /// fewer than 8 amplitudes) takes the scalar loop.
        #[inline(always)]
        unsafe fn scale_run(k: &Scale, p: *mut Complex, len: usize) {
            // SAFETY: every load/store covers amplitudes inside the run
            // the caller owns.
            unsafe {
                let f = p.cast::<f64>();
                let mut i = 0;
                while i + TILE <= len {
                    let (lo, hi) = (f.add(2 * i), f.add(2 * i + 8));
                    _mm512_storeu_pd(lo, cmul(k.m[0], _mm512_loadu_pd(lo)));
                    _mm512_storeu_pd(hi, cmul(k.m[1], _mm512_loadu_pd(hi)));
                    i += TILE;
                }
                scalar::scale_from(&k.t, p, i, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_parallel::SharedSlice;

    /// A deterministic, well-spread set of test amplitudes, with signed
    /// zeros in a few components.
    fn amps(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let x = (i as f64).mul_add(0.618_033_988_749_894_9, 0.1).fract();
                match i % 37 {
                    5 => Complex::new(-0.0, x),
                    11 => Complex::new(x, 0.0),
                    _ => Complex::cis(x * 6.0).scale(0.5 + x),
                }
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

    fn gate(g: qdt_circuit::Gate) -> PairGate {
        PairGate::from_matrix(&g.matrix())
    }

    /// The vector levels this host can run, each compared against the
    /// scalar kernels (whatever [`SIMD_ENV`] says: the level is passed
    /// explicitly).
    fn vector_levels() -> Vec<SimdLevel> {
        [SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|&l| l <= detected_level())
            .collect()
    }

    /// One run spec of every update kind on an 8-qubit state: targets on
    /// qubits 0–3 and 5, controls on qubits 0–3 (lanes and tiles) and
    /// above, dense, real (H, Ry) and diagonal gates, Y, X-shaped moves
    /// and swaps, and all of them on flipped stored bits.
    fn cases() -> Vec<RunSpec> {
        let g = sample_gate();
        let h = gate(qdt_circuit::Gate::H);
        let ry = gate(qdt_circuit::Gate::Ry(0.9));
        let y = gate(qdt_circuit::Gate::Y);
        let rz = gate(qdt_circuit::Gate::Rz(0.7));
        let t = gate(qdt_circuit::Gate::T);
        let mut specs = Vec::new();
        for gate in [g, h, ry, y, rz, t] {
            for (tbit, cmask) in [
                (1, 0),
                (1, 0b1000_0000),
                (2, 0),
                (4, 0),
                (8, 0),
                (32, 0),
                (32, 1),
                (32, 0b10),
                (32, 0b100),
                (32, 0b1000),
                (32, 0b110),
                (2, 0b1001),
                (4, 0b1),
                (8, 0b101),
                (1, 0b110),
                (2, 0b100),
                (4, 0b10),
            ] {
                specs.extend(gate_runs(tbit, cmask, &gate).into_iter().flatten());
            }
        }
        // Diagonals whose target lies outside the index space: both
        // per-block factors, with controls on the tile's bits and above.
        for gate in [rz, t] {
            for cmask in [0, 1, 0b10, 0b100, 0b1000, 0b10_0110] {
                if let Some((spec, updates)) = outside_diagonal_runs(cmask, &gate) {
                    for update in updates.into_iter().flatten() {
                        specs.push(RunSpec { update, ..spec });
                    }
                }
            }
        }
        // X-shaped moves: on bit 0 (interleaved), above it, and with a
        // lane control; swaps whose runs are 1, 2 and 8 amplitudes long.
        let x = gate(qdt_circuit::Gate::X);
        for (tbit, cmask) in [(1, 0), (1, 0b100), (2, 0), (8, 1), (4, 0b10)] {
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
            .map(|s| s.flipped(s.fixed | s.sides.0 | s.sides.1 | 0b111))
            .collect();
        specs.extend(flipped);
        specs
    }

    fn run_spec(state: &mut [Complex], spec: &RunSpec, level: SimdLevel) {
        let runs = RunSet::new(8, spec);
        apply_run_set(
            &SharedSlice::new(state),
            0..runs.count(),
            &runs,
            &spec.update,
            level,
        );
    }

    /// The real guarantee behind `QDT_SIMD` bit-identity: run the same
    /// runs through every implementation and compare bits.
    #[test]
    fn avx2_and_scalar_paths_are_bit_identical() {
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        for level in vector_levels() {
            for spec in cases() {
                let mut scalar = amps(256);
                let mut vector = scalar.clone();
                run_spec(&mut scalar, &spec, SimdLevel::Scalar);
                run_spec(&mut vector, &spec, level);
                assert!(
                    bits(&scalar) == bits(&vector),
                    "{level:?} {spec:?}: SIMD drifted from scalar"
                );
            }
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
        unsafe { apply_runs::<Avx2>(p, 1, |_| ODD_RUN, u) };
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    #[allow(unsafe_code)]
    unsafe fn odd_run_avx512(p: *mut Complex, u: &Update) {
        // SAFETY: forwarded from the caller.
        unsafe { apply_runs::<Avx512>(p, 1, |_| ODD_RUN, u) };
    }

    /// Partial run ranges (as a worker's chunk sees them) and odd-length
    /// runs agree between the paths.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn misaligned_ranges_match_scalar() {
        let g = sample_gate();
        let spec = gate_runs(1 << 5, 0b10, &g)[0].expect("dense gate");
        let runs = RunSet::new(8, &spec);
        for level in vector_levels() {
            let mut scalar = amps(256);
            let mut vector = scalar.clone();
            for (state, level) in [(&mut scalar, SimdLevel::Scalar), (&mut vector, level)] {
                apply_run_set(
                    &SharedSlice::new(state),
                    1..runs.count(),
                    &runs,
                    &spec.update,
                    level,
                );
            }
            assert!(scalar == vector, "{level:?}: partial range drifted");
        }
        let real = gate_runs(1 << 5, 0, &gate(qdt_circuit::Gate::H))[0].expect("real gate");
        for update in [spec.update, real.update, Update::Swap] {
            let mut scalar = amps(32);
            // SAFETY: the run stays inside the buffer.
            #[allow(unsafe_code)]
            unsafe {
                apply_runs::<Scalar>(scalar.as_mut_ptr(), 1, |_| ODD_RUN, &update);
            }
            for level in vector_levels() {
                let mut vector = amps(32);
                // SAFETY: the run stays inside the buffer; the level was
                // detected on this host.
                #[allow(unsafe_code)]
                unsafe {
                    match level {
                        SimdLevel::Avx512 => odd_run_avx512(vector.as_mut_ptr(), &update),
                        _ => odd_run_avx2(vector.as_mut_ptr(), &update),
                    }
                }
                assert!(scalar == vector, "{level:?}: odd-length run drifted");
            }
        }
    }

    /// Controlled gates — a control above the target, and ones on index
    /// bits 0–2 carried as lanes — agree between the paths.
    #[test]
    fn controlled_pairs_match_scalar() {
        let g = sample_gate();
        for level in vector_levels() {
            for (tbit, cmask) in [(1, 0b100), (4, 0b1), (8, 0b10001), (16, 0b110)] {
                let mut scalar = amps(256);
                let mut vector = scalar.clone();
                for spec in gate_runs(tbit, cmask, &g).into_iter().flatten() {
                    run_spec(&mut scalar, &spec, SimdLevel::Scalar);
                    run_spec(&mut vector, &spec, level);
                }
                assert!(
                    scalar == vector,
                    "{level:?}: target {tbit}, controls {cmask:b} drifted"
                );
            }
        }
    }

    /// Every specialised run spec computes what the full 2×2 pair update
    /// computes (under `==`, i.e. up to the sign of a zero), flipped or
    /// not, at every level this host runs.
    #[test]
    fn specialised_runs_match_the_full_pair_update() {
        let n = 8;
        let levels = std::iter::once(SimdLevel::Scalar).chain(vector_levels());
        for level in levels {
            for (gate, tbit, cmask) in [
                (sample_gate(), 1, 0),
                (gate(qdt_circuit::Gate::H), 4, 1),
                (gate(qdt_circuit::Gate::H), 2, 0b1000),
                (gate(qdt_circuit::Gate::Ry(0.4)), 1, 0b100),
                (gate(qdt_circuit::Gate::X), 2, 0b1000),
                (gate(qdt_circuit::Gate::X), 8, 0b1),
                (gate(qdt_circuit::Gate::Y), 8, 0),
                (gate(qdt_circuit::Gate::Rz(0.3)), 1, 0b110),
                (gate(qdt_circuit::Gate::Rz(0.3)), 4, 0b1010),
                (gate(qdt_circuit::Gate::T), 16, 0b1),
                (gate(qdt_circuit::Gate::T), 2, 0b100),
                (gate(qdt_circuit::Gate::T), 64, 0b110),
            ] {
                for flips in [0, cmask | tbit] {
                    // The oracle: the full 2×2 on the flipped stored
                    // indices of the logical pairs.
                    let mut want = amps(1 << n);
                    for l0 in (0..1usize << n).filter(|i| i & tbit == 0 && i & cmask == cmask) {
                        let (s0, s1) = (l0 ^ flips, l0 ^ tbit ^ flips);
                        let (b0, b1) = pair_update(&gate, want[s0], want[s1]);
                        want[s0] = b0;
                        want[s1] = b1;
                    }
                    let mut got = amps(1 << n);
                    for spec in gate_runs(tbit, cmask, &gate).into_iter().flatten() {
                        run_spec(&mut got, &spec.flipped(flips), level);
                    }
                    assert!(
                        got == want,
                        "{level:?}: target {tbit}, controls {cmask:b}, flips {flips:b}"
                    );
                }
            }
        }
    }

    /// Run enumeration visits exactly the indices with the fixed bits
    /// set to their values, each once; diagonal runs are whole tiles.
    #[test]
    fn global_runs_cover_the_fixed_pattern() {
        let g = sample_gate();
        let t = gate(qdt_circuit::Gate::T);
        for (g, tbit, cmask) in [
            (g, 4, 1 << 15),
            (g, 2, 0b10000),
            (g, 1, 0),
            (g, 8192, 2),
            (t, 2, 0b100_0100),
            (t, 1 << 9, 0b1),
        ] {
            let spec = gate_runs(tbit, cmask, &g)
                .into_iter()
                .flatten()
                .next()
                .expect("non-identity gate");
            let runs = RunSet::new(16, &spec);
            let unit = match spec.update {
                Update::Interleaved(_) | Update::RealInterleaved(_) => 2,
                _ => 1,
            };
            let mut seen = Vec::new();
            for p in 0..runs.count() {
                let r = runs.run(p);
                assert_eq!(r.o1, r.o0 + spec.sides.1 - spec.sides.0);
                if let Update::Scale(_) = spec.update {
                    assert!(
                        r.o0.is_multiple_of(TILE) && r.len >= TILE,
                        "{r:?} splits a tile"
                    );
                }
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
        // touching QDT_SIMD (the others pass their level explicitly).
        std::env::set_var(SIMD_ENV, "scalar");
        assert!(!simd_active());
        std::env::set_var(SIMD_ENV, "0");
        assert!(!simd_active());
        std::env::set_var(SIMD_ENV, "avx2");
        assert_eq!(simd_level(), detected_level().min(SimdLevel::Avx2));
        std::env::set_var(SIMD_ENV, "auto");
        assert_eq!(simd_level(), detected_level());
        assert_eq!(simd_active(), detected_level() != SimdLevel::Scalar);
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

    /// With every imaginary part exactly zero, `mul_fma` rounds once per
    /// component, so the real-entry expression equals it under `==` —
    /// signed zeros in the gate and the amplitudes included.
    #[test]
    fn real_pair_update_equals_the_mul_fma_expression() {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let gates = [
            gate(qdt_circuit::Gate::H),
            gate(qdt_circuit::Gate::Ry(0.3)),
            gate(qdt_circuit::Gate::Ry(-2.1)),
            PairGate {
                m00: Complex::new(-0.0, 0.0),
                m01: Complex::new(s, -0.0),
                m10: Complex::new(1.0, 0.0),
                m11: Complex::new(-s, -0.0),
            },
        ];
        let values = [0.0, -0.0, 1.0, -0.3, 0.7, 1e-300, -2.5e17];
        for g in gates {
            let r = RealPair::of(&g).expect("real entries");
            for (i, &x) in values.iter().enumerate() {
                for &y in &values[i..] {
                    let a0 = Complex::new(x, y);
                    let a1 = Complex::new(-y, x);
                    assert_eq!(real_pair_update(&r, a0, a1), pair_update(&g, a0, a1));
                    assert_eq!(real_pair_update(&r, a1, a0), pair_update(&g, a1, a0));
                }
            }
        }
        assert!(RealPair::of(&sample_gate()).is_none());
        assert!(RealPair::of(&gate(qdt_circuit::Gate::Y)).is_none());
    }
}
