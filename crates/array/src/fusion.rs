//! Greedy gate fusion for the dense array backend.
//!
//! Adjacent unitary instructions are merged into one *fused group* while
//! the qubits they **mix** — targets of non-diagonal gates and swap
//! operands ([`Instruction::fusion_support`]) — number at most
//! `width ≤ 5`. Controls and the targets of diagonal gates do not count:
//! inside a block they only select which amplitudes a gate touches, and
//! outside it they become per-block *guards* tested against the block's
//! base index (a control mask, or a choice between `m00` and `m11`). A
//! QFT therefore fuses five Hadamards with every controlled phase in
//! between, whatever qubits the phases touch.
//!
//! A flushed group runs as one pass over the state vector. The block of
//! a pass holds the mixed qubits *padded with the lowest free qubits* up
//! to `2^10` amplitudes (never more than a quarter of the state, so
//! planning stays small next to the sweep), which makes the block a few
//! long unit-stride runs. Each constituent is planned once into run lists
//! of [`crate::simd`] updates (controls and diagonal targets on the
//! block's bits 0–2 become lanes of one tile, so its diagonal runs are
//! at least 8 amplitudes long); every block then applies them in program
//! order while its amplitudes are L1-resident. One memory sweep replaces
//! one sweep *per gate*.
//!
//! # Exactness
//!
//! Fusion is **bit-identical** to unfused execution under IEEE `==`, not
//! merely close: every constituent only mixes amplitudes within a block
//! (its mixed qubits are block qubits), a guard only decides *whether*
//! the block's amplitudes take part, and each update runs the same
//! floating-point expressions as the unfused kernels in [`crate::simd`],
//! so every amplitude receives the same `mul_fma` sequence in program
//! order. The fused matrix is deliberately *not* composed —
//! pre-multiplying the constituents in f64 would reassociate roundings
//! and break the exact fused-vs-unfused differential tests.
//!
//! # Boundaries
//!
//! Fusion never merges across anything non-unitary: measurements,
//! resets, classically conditioned gates, and barriers all flush the
//! pending group (see [`Fuser::try_push`]). `tests/fusion_agreement.rs`
//! and the unit tests below pin this, including through `split_dynamic`
//! prefix/suffix replay in the `ShotExecutor`.

use qdt_circuit::{Instruction, OpKind};
use qdt_parallel::SharedSlice;

use qdt_complex::Complex;

use crate::simd::{
    apply_runs, gate_runs, outside_diagonal_runs, swap_runs, Kernels, PairGate, Run, RunSet,
    RunSpec, Scalar, SimdLevel, Update,
};
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2, Avx512};

/// The maximum fusion width: the number of qubits one group may *mix*
/// (targets of non-diagonal gates and swap operands; controls and
/// diagonal targets are free). Five mixed qubits plus at least five
/// padding qubits fill a `2^10`-amplitude block. `array(fuse=k)` rejects
/// anything larger.
pub const MAX_FUSE_WIDTH: usize = 5;

/// Log₂ of the padded block size: `2^10` amplitudes (16 KiB) stay
/// L1-resident across all of a group's constituents.
const BLOCK_BITS: usize = 10;

/// A block never holds more than `2^-BLOCK_SPLIT_BITS` of the state, so
/// planning one block stays small next to the sweep over all of them.
const BLOCK_SPLIT_BITS: usize = 2;

/// A run of fusable instructions with the qubits they mix.
#[derive(Clone, Debug)]
pub struct FusedGroup {
    /// The mixed qubits, ascending. `len() ≤ MAX_FUSE_WIDTH`.
    qubits: Vec<usize>,
    /// The constituent instructions, in program order.
    ops: Vec<Instruction>,
    /// Per constituent, the stored bits the engine's frame had flipped
    /// when it arrived (see [`crate::frame`]; 0 outside the engine).
    flips: Vec<usize>,
}

impl FusedGroup {
    /// The qubits the group mixes, ascending (its fusion width is
    /// their count).
    #[must_use]
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// Number of constituent instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the group holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The constituent instructions in program order.
    #[must_use]
    pub fn ops(&self) -> &[Instruction] {
        &self.ops
    }

    /// Per constituent, the stored bits flipped by the engine's frame.
    pub(crate) fn flips(&self) -> &[usize] {
        &self.flips
    }
}

/// Streaming greedy fuser: push instructions in program order; each push
/// either absorbs the instruction into the pending group or signals that
/// the caller must flush first. An instruction joins while the qubits
/// the group *mixes* stay within the width
/// ([`FusionSupport::merge_into`](qdt_circuit::FusionSupport::merge_into));
/// controls and diagonal targets never widen a group.
#[derive(Clone, Debug)]
pub struct Fuser {
    width: usize,
    mixed: Vec<usize>,
    ops: Vec<Instruction>,
    flips: Vec<usize>,
}

impl Fuser {
    /// A fuser merging up to `width` qubits per group (clamped to
    /// [`MAX_FUSE_WIDTH`]; `width = 0` disables fusion entirely —
    /// `try_push` then never absorbs anything).
    #[must_use]
    pub fn new(width: usize) -> Self {
        Fuser {
            width: width.min(MAX_FUSE_WIDTH),
            mixed: Vec::new(),
            ops: Vec::new(),
            flips: Vec::new(),
        }
    }

    /// The configured fusion width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of instructions currently pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.ops.len()
    }

    /// Tries to absorb `inst` into the pending group. Returns `false` —
    /// without modifying the pending group — when `inst` is a fusion
    /// boundary (non-unitary, conditioned, or a barrier) or when the
    /// qubits it mixes would exceed the fusion width; the caller must then
    /// flush via [`Fuser::take`] and handle `inst` itself (retrying the
    /// push only makes sense for width overflows).
    pub fn try_push(&mut self, inst: &Instruction) -> bool {
        self.try_push_framed(inst, 0)
    }

    /// [`Fuser::try_push`] for an instruction already renamed to stored
    /// qubits by the engine's frame, whose stored bits in `flips` are
    /// flipped.
    pub(crate) fn try_push_framed(&mut self, inst: &Instruction, flips: usize) -> bool {
        if self.width == 0 {
            return false;
        }
        let Some(support) = inst.fusion_support() else {
            return false;
        };
        if !support.merge_into(&mut self.mixed, self.width) {
            return false;
        }
        self.ops.push(inst.clone());
        self.flips.push(flips);
        true
    }

    /// Drains the pending group, if any.
    pub fn take(&mut self) -> Option<FusedGroup> {
        if self.ops.is_empty() {
            return None;
        }
        Some(FusedGroup {
            qubits: std::mem::take(&mut self.mixed),
            ops: std::mem::take(&mut self.ops),
            flips: std::mem::take(&mut self.flips),
        })
    }
}

/// One entry of a fusion plan: a contiguous instruction span and whether
/// it executes as a fused kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupSpan {
    /// Start index into the planned instruction list.
    pub start: usize,
    /// Number of instructions in the span (relabellings that arrive
    /// while the group is open included).
    pub len: usize,
    /// Mixed qubits (ascending, numbered as the engine's frame stores
    /// them); empty for unfused boundary spans.
    pub qubits: Vec<usize>,
    /// `true` when the span runs as one fused kernel (width > 0 and the
    /// span is a run of fusable instructions).
    pub fused: bool,
}

/// Plans the fusion grouping of `insts` at the given width without
/// executing anything — the exact grouping the engine's streaming
/// [`Fuser`] produces behind its frame, exposed for tests, the cost
/// model, and the bench snapshot. Boundary instructions become their own
/// unfused spans. Relabellings ([`Instruction::is_relabelling`]) run no
/// kernel: one that arrives while a group is open rides along in its
/// span, any other belongs to no span, and later gates are grouped by
/// the stored qubits the frame maps them to.
#[must_use]
pub fn plan_groups(insts: &[Instruction], width: usize) -> Vec<GroupSpan> {
    let mut fuser = Fuser::new(width);
    let mut frame = crate::frame::Frame::default();
    let mut spans = Vec::new();
    // Start of the open group's span.
    let mut start = 0usize;
    let flush = |fuser: &mut Fuser, spans: &mut Vec<GroupSpan>, start: usize, end: usize| {
        if let Some(group) = fuser.take() {
            spans.push(GroupSpan {
                start,
                len: end - start,
                qubits: group.qubits,
                fused: true,
            });
        }
    };
    for (i, inst) in insts.iter().enumerate() {
        if frame.relabel(inst) {
            continue;
        }
        let inst = frame.map(inst);
        if fuser.pending() == 0 {
            start = i;
        }
        if fuser.try_push(&inst) {
            continue;
        }
        flush(&mut fuser, &mut spans, start, i);
        start = i;
        if fuser.try_push(&inst) {
            continue;
        }
        // A genuine boundary: its own unfused singleton span.
        spans.push(GroupSpan {
            start: i,
            len: 1,
            qubits: Vec::new(),
            fused: false,
        });
    }
    flush(&mut fuser, &mut spans, start, insts.len());
    spans
}

/// One constituent gate planned onto a block: its runs, and the guards
/// that decide per block whether (and with which factor) it applies.
#[derive(Clone, Debug)]
struct PlannedOp {
    /// Controls outside the block: the op applies to a block only when
    /// its base index has these bits equal to `guard_value` (set, or
    /// clear for a control whose stored bit is flipped).
    guard: usize,
    /// The required values of the `guard` bits.
    guard_value: usize,
    /// The target bit of a diagonal gate outside the block (0 if none):
    /// the base's value of this bit picks `updates[0]` (`m00`) or
    /// `updates[1]` (`m11`).
    select: usize,
    /// The update per `select` value; `None` skips the block (a factor
    /// of exactly 1).
    updates: [Option<Update>; 2],
    /// The runs, as offsets into the block's local index space.
    runs: Vec<Run>,
}

/// A fused group compiled for one register width: the block layout and
/// every constituent's runs over the block's local index space (bit `i`
/// of a local index is block qubit `i`), built once before any amplitude
/// is touched.
#[derive(Clone, Debug)]
pub(crate) struct BlockPlan {
    /// The block holds qubits `0..low` …
    low: usize,
    /// … and these, ascending (all above `low`).
    high: Vec<usize>,
    /// Offsets from the block base of its contiguous `2^low`-amplitude
    /// chunks, in local order.
    chunks: Vec<usize>,
    /// The constituents, in program order.
    ops: Vec<PlannedOp>,
}

impl BlockPlan {
    /// Plans `group` for a `num_qubits`-qubit state. The block is the
    /// group's mixed qubits padded with the lowest free qubits to
    /// `2^BLOCK_BITS` amplitudes, but to at most a `2^-BLOCK_SPLIT_BITS`
    /// share of the state (never fewer than the mixed qubits).
    pub(crate) fn new(group: &FusedGroup, num_qubits: usize) -> BlockPlan {
        let mixed = group.qubits();
        let bits = BLOCK_BITS
            .min(num_qubits.saturating_sub(BLOCK_SPLIT_BITS))
            .max(mixed.len())
            .min(num_qubits);
        let mut block = mixed.to_vec();
        for q in (0..num_qubits).filter(|q| !mixed.contains(q)) {
            if block.len() == bits {
                break;
            }
            block.push(q);
        }
        block.sort_unstable();
        let low = block
            .iter()
            .enumerate()
            .take_while(|&(i, &q)| i == q)
            .count();
        let chunks = (0..1usize << (bits - low))
            .map(|c| {
                block[low..]
                    .iter()
                    .enumerate()
                    .map(|(i, &q)| ((c >> i) & 1) << q)
                    .sum()
            })
            .collect();
        let local = |q: usize| block.binary_search(&q).ok().map(|i| 1usize << i);
        let mut ops = Vec::new();
        for (inst, &flips) in group.ops().iter().zip(&group.flips) {
            let controls: &[usize] = match &inst.kind {
                OpKind::Unitary { controls, .. } | OpKind::Swap { controls, .. } => controls,
                other => unreachable!("non-unitary op {other:?} in fused group"),
            };
            let flipped = |q: usize| flips >> q & 1 != 0;
            // In-block controls and their flipped bits; outside ones
            // become guards.
            let (mut cmask, mut lflips, mut guard, mut guard_value) = (0usize, 0, 0, 0);
            for &c in controls {
                match local(c) {
                    Some(bit) => {
                        cmask |= bit;
                        if flipped(c) {
                            lflips |= bit;
                        }
                    }
                    None => {
                        guard |= 1 << c;
                        if !flipped(c) {
                            guard_value |= 1 << c;
                        }
                    }
                }
            }
            let mut push = |select, updates, spec: &RunSpec| {
                let runs = RunSet::new(bits, spec);
                ops.push(PlannedOp {
                    guard,
                    guard_value,
                    select,
                    updates,
                    runs: (0..runs.count()).map(|p| runs.run(p)).collect(),
                });
            };
            match &inst.kind {
                OpKind::Unitary { gate, target, .. } => {
                    let g = PairGate::from_matrix(&gate.matrix());
                    if let Some(tbit) = local(*target) {
                        if flipped(*target) {
                            lflips |= tbit;
                        }
                        for spec in gate_runs(tbit, cmask, &g).into_iter().flatten() {
                            let spec = spec.flipped(lflips);
                            push(0, [Some(spec.update), None], &spec);
                        }
                    } else {
                        // Only diagonal gates leave their target unmixed.
                        debug_assert!(g.is_diagonal(), "{inst:?} mixes a qubit outside the block");
                        // A flipped outside target exchanges m00 and m11.
                        let g = if flipped(*target) { g.flipped() } else { g };
                        if let Some((spec, updates)) = outside_diagonal_runs(cmask, &g) {
                            let spec = spec.flipped(lflips);
                            let updates =
                                updates.map(|u| u.map(|u| spec.update_flipped(lflips, u)));
                            push(1 << target, updates, &spec);
                        }
                    }
                }
                OpKind::Swap { a, b, .. } => {
                    let bit = |q: usize| local(q).expect("swap operand outside the block");
                    for q in [*a, *b] {
                        if flipped(q) {
                            lflips |= bit(q);
                        }
                    }
                    let spec = swap_runs(bit(*a), bit(*b), cmask).flipped(lflips);
                    push(0, [Some(spec.update), None], &spec);
                }
                _ => unreachable!("checked above"),
            }
        }
        BlockPlan {
            low,
            high: block[low..].to_vec(),
            chunks,
            ops,
        }
    }

    /// Number of blocks in a `num_qubits`-qubit state.
    pub(crate) fn blocks(&self, num_qubits: usize) -> usize {
        1 << (num_qubits - self.low - self.high.len())
    }

    /// Scheduling weight of one block: its amplitudes times the
    /// constituents applied to them.
    pub(crate) fn block_weight(&self) -> usize {
        (1 << (self.low + self.high.len())) * self.ops.len().max(1)
    }

    /// Applies the plan to every block in `range`, updating the shared
    /// amplitude slice in place. Dispatches the whole chunk to one
    /// instantiation of the block loop for `level` (AVX-512, AVX2+FMA or
    /// plain scalar) — all run the same expressions in the same order,
    /// so the bits agree whichever runs.
    pub(crate) fn run(
        &self,
        amps: &SharedSlice<'_, Complex>,
        range: core::ops::Range<usize>,
        level: SimdLevel,
    ) {
        match level {
            // SAFETY: `level` is only a vector level after the runtime
            // feature check of `crate::simd::simd_level`.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            SimdLevel::Avx512 => unsafe { self.run_avx512(amps, range) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            SimdLevel::Avx2 => unsafe { self.run_avx2(amps, range) },
            _ => self.run_body::<Scalar>(amps, range),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(unsafe_code)]
    unsafe fn run_avx2(&self, amps: &SharedSlice<'_, Complex>, range: core::ops::Range<usize>) {
        self.run_body::<Avx2>(amps, range);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    #[allow(unsafe_code)]
    unsafe fn run_avx512(&self, amps: &SharedSlice<'_, Complex>, range: core::ops::Range<usize>) {
        self.run_body::<Avx512>(amps, range);
    }

    /// The shared per-block loop: expand the block number to its base
    /// index, gather the block's chunks into a contiguous buffer (a
    /// block whose qubits are all low is contiguous already and runs in
    /// place), apply every planned op whose guards the base passes, and
    /// scatter the block back. The buffer keeps the block L1-resident
    /// across all the ops: in place, the chunks of a block lie a power
    /// of two apart and evict each other from the cache.
    #[inline(always)]
    fn run_body<K: Kernels>(
        &self,
        amps: &SharedSlice<'_, Complex>,
        range: core::ops::Range<usize>,
    ) {
        let chunk_len = 1usize << self.low;
        let gathered = self.chunks.len() > 1;
        let mut buf = vec![
            Complex::ZERO;
            if gathered {
                chunk_len * self.chunks.len()
            } else {
                0
            }
        ];
        for b in range {
            // Insert a zero at each block qubit position (ascending).
            let mut base = b << self.low;
            for &q in &self.high {
                let below = (1usize << q) - 1;
                base = ((base & !below) << 1) | (base & below);
            }
            // SAFETY: block b owns exactly the indices base + chunk
            // offset + i, i < chunk_len (distinct blocks have disjoint
            // index sets); every planned run stays inside the block's
            // local index space, which the buffer (or, ungathered, the
            // contiguous block itself) covers.
            #[allow(unsafe_code)]
            unsafe {
                let block = if gathered {
                    for (c, &off) in self.chunks.iter().enumerate() {
                        let src = amps.as_mut_ptr().add(base + off);
                        std::ptr::copy_nonoverlapping(
                            src,
                            buf.as_mut_ptr().add(c * chunk_len),
                            chunk_len,
                        );
                    }
                    buf.as_mut_ptr()
                } else {
                    amps.as_mut_ptr().add(base)
                };
                for op in &self.ops {
                    if base & op.guard != op.guard_value {
                        continue;
                    }
                    let Some(update) = &op.updates[usize::from(base & op.select != 0)] else {
                        continue;
                    };
                    apply_runs::<K>(block, op.runs.len(), |k| op.runs[k], update);
                }
                if gathered {
                    for (c, &off) in self.chunks.iter().enumerate() {
                        let dst = amps.as_mut_ptr().add(base + off);
                        std::ptr::copy_nonoverlapping(
                            buf.as_ptr().add(c * chunk_len),
                            dst,
                            chunk_len,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::Circuit;

    fn ghz_with_barrier() -> Circuit {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1);
        qc.barrier();
        qc.cx(1, 2);
        qc
    }

    #[test]
    fn fusion_never_merges_across_a_barrier() {
        let qc = ghz_with_barrier();
        let spans = plan_groups(qc.instructions(), 5);
        // [h, cx] | barrier | [cx]
        assert_eq!(spans.len(), 3);
        assert!(spans[0].fused && spans[0].len == 2);
        assert!(!spans[1].fused && spans[1].len == 1, "barrier fused");
        assert!(spans[2].fused && spans[2].len == 1);
    }

    #[test]
    fn fusion_never_merges_across_measure_reset_or_c_if() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0);
        qc.measure(0, 0);
        // A Y, not an X: an uncontrolled X is a relabelling and runs no
        // pass at all (see the next test).
        qc.y(1);
        qc.reset(0);
        qc.h(1);
        qc.x(0).c_if(0, true);
        qc.h(0);
        let spans = plan_groups(qc.instructions(), 5);
        let fused: Vec<bool> = spans.iter().map(|s| s.fused).collect();
        // h | measure | y | reset | h | c_if x | h — nothing merges across
        // any dynamic boundary.
        assert_eq!(
            fused,
            [true, false, true, false, true, false, true],
            "{spans:?}"
        );
        assert!(spans.iter().all(|s| s.len == 1));
    }

    #[test]
    fn relabellings_ride_along_or_open_no_span() {
        let mut qc = Circuit::with_clbits(3, 1);
        qc.x(2).h(0).swap(0, 2).h(0);
        qc.measure(1, 0);
        qc.x(1).swap(1, 2);
        qc.reset(0);
        let spans = plan_groups(qc.instructions(), 5);
        // The leading x opens no span; the swap rides along in the open
        // group, whose second H lands on stored qubit 2; the x and swap
        // after the measurement run between two boundaries and belong to
        // no span at all.
        assert_eq!(
            spans,
            [
                GroupSpan {
                    start: 1,
                    len: 3,
                    qubits: vec![0, 2],
                    fused: true
                },
                GroupSpan {
                    start: 4,
                    len: 1,
                    qubits: vec![],
                    fused: false
                },
                GroupSpan {
                    start: 7,
                    len: 1,
                    qubits: vec![],
                    fused: false
                },
            ]
        );
        // Without fusion, relabellings still run no pass.
        let plain = plan_groups(qc.instructions(), 0);
        assert_eq!(
            plain.iter().map(|s| s.start).collect::<Vec<_>>(),
            [1, 3, 4, 7]
        );
    }

    #[test]
    fn width_overflow_starts_a_new_group() {
        let mut qc = Circuit::new(4);
        qc.h(0).h(1).h(2).h(3);
        let spans = plan_groups(qc.instructions(), 2);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].len, spans[1].len), (2, 2));
        assert_eq!(spans[0].qubits, vec![0, 1]);
        assert_eq!(spans[1].qubits, vec![2, 3]);
    }

    #[test]
    fn width_zero_disables_fusion() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).h(1);
        let spans = plan_groups(qc.instructions(), 0);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| !s.fused && s.len == 1));
    }

    #[test]
    fn split_dynamic_prefixes_fuse_independently_of_suffixes() {
        // A dynamic circuit: the static prefix must produce the same plan
        // as planning the prefix in isolation — fusion state cannot leak
        // across the measure into the suffix.
        let mut qc = Circuit::with_clbits(3, 1);
        qc.h(0).cx(0, 1).t(1);
        qc.measure(1, 0);
        qc.h(2).cx(1, 2);
        let (prefix, suffix) = qc.split_dynamic();
        let full = plan_groups(qc.instructions(), 5);
        let pre = plan_groups(prefix.instructions(), 5);
        let suf = plan_groups(suffix, 5);
        // Prefix plan is a prefix of the full plan…
        assert_eq!(&full[..pre.len()], &pre[..]);
        // …and the suffix replans from scratch (its first span does not
        // extend a prefix group).
        assert_eq!(suf[0].start, 0);
        assert!(pre.iter().all(|s| s.fused));
        assert!(!full[pre.len()].fused, "measure must be a boundary");
    }

    #[test]
    fn conditioned_gates_are_boundaries_even_when_unitary_shaped() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.x(0).c_if(0, true);
        let inst = &qc.instructions()[0];
        assert_eq!(inst.fusion_support(), None);
        let mut fuser = Fuser::new(5);
        assert!(!fuser.try_push(inst));
        assert!(fuser.take().is_none());
    }

    #[test]
    fn groups_report_sorted_support() {
        let mut qc = Circuit::new(6);
        qc.cx(4, 1).h(3);
        let mut fuser = Fuser::new(5);
        for inst in qc.instructions() {
            assert!(fuser.try_push(inst));
        }
        let group = fuser.take().expect("pending group");
        // The control 4 of the CX is not mixed: only targets count.
        assert_eq!(group.qubits(), &[1, 3]);
        assert_eq!(group.len(), 2);
    }

    /// A non-trivial 16-qubit state: H on every qubit, then phases, so
    /// every amplitude differs.
    fn spread_state(n: usize) -> crate::StateVector {
        let mut qc = Circuit::new(n);
        for q in 0..n {
            qc.h(q).rz(0.1 + q as f64, q);
        }
        qc.cx(0, n - 1).ry(0.7, 3);
        crate::StateVector::from_circuit(&qc).expect("unitary")
    }

    /// Fused (one pass over the planned blocks) against unfused
    /// (instruction by instruction): exact `==`.
    fn assert_fused_matches_unfused(qc: &Circuit) {
        let ctx = qdt_parallel::KernelContext::sequential();
        let mut fuser = Fuser::new(MAX_FUSE_WIDTH);
        for inst in qc.instructions() {
            assert!(fuser.try_push(inst), "{inst:?} does not fit the group");
        }
        let group = fuser.take().expect("pending group");
        let mut fused = spread_state(qc.num_qubits());
        let mut unfused = fused.clone();
        fused.apply_fused_with(&group, &ctx);
        for inst in qc.instructions() {
            unfused.apply_instruction_with(inst, &ctx).expect("unitary");
        }
        assert!(fused == unfused, "fused pass drifted from unfused");
    }

    #[test]
    fn a_cp_outside_the_group_fuses_without_widening_it() {
        let mut qc = Circuit::new(16);
        qc.h(0).h(1).cp(0.3, 12, 13).h(2);
        let mut fuser = Fuser::new(MAX_FUSE_WIDTH);
        for inst in qc.instructions() {
            assert!(fuser.try_push(inst));
        }
        let group = fuser.take().expect("pending group");
        assert_eq!(
            group.qubits(),
            &[0, 1, 2],
            "controls and diagonal targets are free"
        );
        // The padded block is qubits 0..10: the CP's control becomes a
        // guard and its target picks the factor per block.
        let plan = BlockPlan::new(&group, 16);
        let cp = &plan.ops[2];
        assert_eq!((cp.guard, cp.select), (1 << 12, 1 << 13));
        assert!(cp.updates[0].is_none(), "m00 = 1 skips the block");
        assert!(cp.updates[1].is_some());
        assert_fused_matches_unfused(&qc);
    }

    #[test]
    fn an_outside_control_on_an_h_becomes_a_guard() {
        let mut qc = Circuit::new(16);
        qc.ch(14, 0).x(1).ccz(15, 13, 1);
        let mut fuser = Fuser::new(MAX_FUSE_WIDTH);
        for inst in qc.instructions() {
            assert!(fuser.try_push(inst));
        }
        let group = fuser.take().expect("pending group");
        assert_eq!(group.qubits(), &[0, 1]);
        let plan = BlockPlan::new(&group, 16);
        assert_eq!(
            plan.ops[0].guard,
            1 << 14,
            "the control outside the block guards the H"
        );
        assert_eq!(plan.ops[0].select, 0);
        // CCZ targets qubit 1 (in the block), controlled from outside.
        assert_eq!(plan.ops[2].guard, (1 << 15) | (1 << 13));
        assert_fused_matches_unfused(&qc);
    }

    #[test]
    fn low_controls_and_diagonal_targets_fold_into_tiles() {
        // Controls on block bits 0–2 and diagonal targets there: every
        // diagonal op runs in whole, aligned 8-amplitude tiles.
        let mut qc = Circuit::new(14);
        qc.h(12)
            .cp(0.3, 1, 12)
            .cp(0.5, 2, 12)
            .cp(0.7, 0, 12)
            .crz(0.9, 12, 2)
            .cp(1.1, 1, 2)
            .t(1)
            .ry(0.4, 12);
        let mut fuser = Fuser::new(MAX_FUSE_WIDTH);
        for inst in qc.instructions() {
            assert!(fuser.try_push(inst));
        }
        let plan = BlockPlan::new(&fuser.take().expect("pending group"), 14);
        let mut diagonal_ops = 0;
        for op in &plan.ops {
            if let Some(Update::Scale(_)) = op.updates[0].or(op.updates[1]) {
                diagonal_ops += 1;
                assert!(
                    op.runs.iter().all(|r| r.o0.is_multiple_of(8) && r.len >= 8),
                    "{:?} splits a tile",
                    op.runs
                );
            }
        }
        assert_eq!(diagonal_ops, 6);
        assert_fused_matches_unfused(&qc);
    }

    #[test]
    fn fused_blocks_match_unfused_on_every_update_kind() {
        // Gates on qubit 0 (interleaved), controls on qubit 0 (lanes),
        // dense and X-shaped matrices, Y, swaps, diagonal
        // targets inside and outside the block, on a state large enough
        // to gather blocks from scattered chunks.
        let mut qc = Circuit::new(14);
        qc.h(0)
            .cx(0, 12)
            .rz(0.4, 0)
            .y(11)
            .cp(0.9, 0, 13)
            .swap(12, 13)
            .u(0.3, 0.2, 0.1, 12)
            .crz(1.1, 5, 11)
            .t(9)
            .cswap(3, 0, 11);
        assert_fused_matches_unfused(&qc);
    }
}
