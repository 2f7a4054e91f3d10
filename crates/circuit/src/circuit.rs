//! The gate-list circuit IR.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use qdt_complex::Matrix;

use crate::{CircuitError, Gate, Pauli};

/// One operation in a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// A (possibly multi-controlled) unitary gate: `gate` acts on `target`
    /// iff every qubit in `controls` is |1⟩.
    Unitary {
        /// The single-qubit base gate.
        gate: Gate,
        /// The target qubit.
        target: usize,
        /// Control qubits (empty for an uncontrolled gate).
        controls: Vec<usize>,
    },
    /// A (possibly controlled) SWAP of qubits `a` and `b`.
    Swap {
        /// First swapped qubit.
        a: usize,
        /// Second swapped qubit.
        b: usize,
        /// Control qubits (one control makes this a Fredkin gate).
        controls: Vec<usize>,
    },
    /// Projective measurement of `qubit` in the computational basis into
    /// classical bit `clbit`.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        clbit: usize,
    },
    /// Reset `qubit` to |0⟩.
    Reset {
        /// The qubit to reset.
        qubit: usize,
    },
    /// A scheduling barrier over the given qubits (no semantic effect).
    Barrier(Vec<usize>),
    /// A noise channel on `qubit`: not unitary, so a shot loop draws it
    /// per shot (one Kraus branch) and a density matrix applies it whole.
    Channel {
        /// The qubit the channel acts on.
        qubit: usize,
        /// The channel's Kraus operators.
        channel: Arc<Channel>,
    },
}

/// A single-qubit Kraus channel `ρ → Σ Kᵢ ρ Kᵢ†`, the payload of
/// [`OpKind::Channel`].
///
/// When every operator is a scaled Pauli `cᵢ·Pᵢ` (depolarizing, bit and
/// phase flip) the channel also holds the Paulis and their Born weights
/// `|cᵢ|²`, which are the same on every state, so a stochastic simulator
/// can draw the branch first and apply one Pauli as a gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    kraus: Vec<Matrix>,
    pauli_mix: Option<(Vec<Pauli>, Vec<f64>)>,
}

impl Channel {
    /// A channel from its Kraus operators (trace preservation is the
    /// noise model's to check).
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidChannel`] for an empty operator list or an
    /// operator that is not 2×2.
    pub fn new(kraus: Vec<Matrix>) -> Result<Channel, CircuitError> {
        let reason = if kraus.is_empty() {
            "no Kraus operators"
        } else if kraus.iter().any(|k| (k.rows(), k.cols()) != (2, 2)) {
            "a Kraus operator is not 2×2"
        } else {
            let pauli_mix = kraus
                .iter()
                .map(|k| Pauli::from_scaled_matrix(k).map(|(p, c)| (p, c.norm_sqr())))
                .collect::<Option<Vec<_>>>()
                .map(|mix| mix.into_iter().unzip());
            return Ok(Channel { kraus, pauli_mix });
        };
        Err(CircuitError::InvalidChannel { reason })
    }

    /// The Kraus operators.
    #[must_use]
    pub fn kraus(&self) -> &[Matrix] {
        &self.kraus
    }

    /// The Paulis and their Born weights, when every operator is a
    /// scaled Pauli.
    #[must_use]
    pub fn pauli_mix(&self) -> Option<(&[Pauli], &[f64])> {
        let (paulis, weights) = self.pauli_mix.as_ref()?;
        Some((paulis, weights))
    }
}

/// A classical condition attached to an instruction: execute only if
/// `clbit` currently holds `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Condition {
    /// The classical bit inspected.
    pub clbit: usize,
    /// The value the bit must hold for the instruction to fire.
    pub value: bool,
}

impl Condition {
    /// Evaluates the condition against a classical register snapshot.
    ///
    /// Out-of-range bits read as `false`, matching the hardware
    /// convention that an unwritten classical bit holds `0`.
    pub fn is_satisfied(&self, state: &ClassicalState) -> bool {
        state.get(self.clbit) == self.value
    }
}

/// The classical register of one shot: the bits written by mid-circuit
/// measurements and read by [`Condition`]s.
///
/// Dynamic-circuit executors thread one `ClassicalState` through each
/// shot; at the end of the shot [`ClassicalState::as_u128`] is the
/// histogram key (clbit `k` contributes bit `k`, the same packing the
/// engine layer uses for basis indices).
///
/// # Example
///
/// ```
/// use qdt_circuit::ClassicalState;
///
/// let mut cs = ClassicalState::new(3);
/// cs.set(0, true);
/// cs.set(2, true);
/// assert_eq!(cs.as_u128(), 0b101);
/// assert!(!cs.get(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassicalState {
    bits: u128,
    len: usize,
}

impl ClassicalState {
    /// Maximum register width (the histogram key is a `u128`).
    pub const MAX_BITS: usize = 128;

    /// An all-zero register of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`ClassicalState::MAX_BITS`].
    #[must_use]
    pub fn new(len: usize) -> ClassicalState {
        assert!(
            len <= Self::MAX_BITS,
            "classical register of {len} bits exceeds the {}-bit histogram key",
            Self::MAX_BITS
        );
        ClassicalState { bits: 0, len }
    }

    /// Number of bits in the register.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the register has no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `clbit`; out-of-range bits read as `false`.
    #[must_use]
    pub fn get(&self, clbit: usize) -> bool {
        clbit < Self::MAX_BITS && (self.bits >> clbit) & 1 == 1
    }

    /// Writes bit `clbit`.
    ///
    /// # Panics
    ///
    /// Panics if `clbit` is out of range.
    pub fn set(&mut self, clbit: usize, value: bool) {
        assert!(
            clbit < self.len,
            "clbit {clbit} out of range ({})",
            self.len
        );
        if value {
            self.bits |= 1 << clbit;
        } else {
            self.bits &= !(1 << clbit);
        }
    }

    /// The register packed as a basis-index-style integer (bit `k` =
    /// clbit `k`).
    #[must_use]
    pub fn as_u128(&self) -> u128 {
        self.bits
    }

    /// Clears every bit (start of a fresh shot).
    pub fn clear(&mut self) {
        self.bits = 0;
    }
}

/// A single instruction: an [`OpKind`] plus optional metadata (currently
/// a classical [`Condition`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// What the instruction does.
    pub kind: OpKind,
    /// Classical condition gating execution (`None` = always execute).
    pub cond: Option<Condition>,
}

impl Instruction {
    /// An unconditioned instruction.
    pub fn new(kind: OpKind) -> Instruction {
        Instruction { kind, cond: None }
    }

    /// This instruction gated on `clbit == value`.
    pub fn with_cond(mut self, clbit: usize, value: bool) -> Instruction {
        self.cond = Some(Condition { clbit, value });
        self
    }

    /// All qubits this instruction touches (targets then controls),
    /// borrowed from the instruction: iterating them allocates nothing.
    pub fn qubits(&self) -> Qubits<'_> {
        let (lead, lead_len, rest): ([usize; 2], usize, &[usize]) = match &self.kind {
            OpKind::Unitary {
                target, controls, ..
            } => ([*target, 0], 1, controls),
            OpKind::Swap { a, b, controls } => ([*a, *b], 2, controls),
            OpKind::Measure { qubit, .. }
            | OpKind::Reset { qubit }
            | OpKind::Channel { qubit, .. } => ([*qubit, 0], 1, &[]),
            OpKind::Barrier(qs) => ([0; 2], 0, qs),
        };
        Qubits {
            lead,
            next_lead: 0,
            lead_len,
            rest: rest.iter(),
        }
    }

    /// Checks that every qubit lies below `num_qubits` and that none is
    /// listed twice.
    ///
    /// # Errors
    ///
    /// [`CircuitError::QubitOutOfRange`] or [`CircuitError::DuplicateQubit`].
    pub fn check_qubits(&self, num_qubits: usize) -> Result<(), CircuitError> {
        // One pass with a bit set over qubits below 64; only a repeat or
        // a wider qubit pays for the exact `repeated_qubit` scan.
        let (mut seen, mut suspect) = (0u64, false);
        for qubit in self.qubits() {
            if qubit >= num_qubits {
                return Err(CircuitError::QubitOutOfRange { qubit, num_qubits });
            }
            let bit = if qubit < 64 { 1 << qubit } else { 0 };
            suspect |= bit == 0 || seen & bit != 0;
            seen |= bit;
        }
        match suspect.then(|| repeated_qubit(self.qubits())).flatten() {
            Some(qubit) => Err(CircuitError::DuplicateQubit { qubit }),
            None => Ok(()),
        }
    }

    /// This instruction with every qubit index `q` replaced by `f(q)`
    /// (classical bits and the condition are kept).
    #[must_use]
    pub fn remapped(&self, f: impl Fn(usize) -> usize) -> Instruction {
        let kind = match &self.kind {
            OpKind::Unitary {
                gate,
                target,
                controls,
            } => OpKind::Unitary {
                gate: *gate,
                target: f(*target),
                controls: controls.iter().map(|&c| f(c)).collect(),
            },
            OpKind::Swap { a, b, controls } => OpKind::Swap {
                a: f(*a),
                b: f(*b),
                controls: controls.iter().map(|&c| f(c)).collect(),
            },
            OpKind::Measure { qubit, clbit } => OpKind::Measure {
                qubit: f(*qubit),
                clbit: *clbit,
            },
            OpKind::Reset { qubit } => OpKind::Reset { qubit: f(*qubit) },
            OpKind::Barrier(qs) => OpKind::Barrier(qs.iter().map(|&q| f(q)).collect()),
            OpKind::Channel { qubit, channel } => OpKind::Channel {
                qubit: f(*qubit),
                channel: Arc::clone(channel),
            },
        };
        Instruction {
            kind,
            cond: self.cond,
        }
    }

    /// Returns `true` for unitary operations (gates and swaps).
    ///
    /// A classically conditioned gate is *not* unitary as a map on the
    /// quantum state alone — whether it fires depends on the classical
    /// register — so conditioned instructions always return `false`.
    pub fn is_unitary(&self) -> bool {
        self.cond.is_none() && matches!(self.kind, OpKind::Unitary { .. } | OpKind::Swap { .. })
    }

    /// Whether this instruction only relabels the computational basis:
    /// an uncontrolled, unconditioned `swap` (two qubits exchange their
    /// labels) or `x` (one qubit's value is flipped). A dense simulator
    /// can track such an instruction in a qubit map and a flip mask
    /// instead of moving amplitudes; the array engine's frame, its
    /// fusion plan and the cost model's pass count all use this one
    /// rule (see [`QubitMap`]).
    #[must_use]
    pub fn is_relabelling(&self) -> bool {
        self.cond.is_none()
            && match &self.kind {
                OpKind::Swap { controls, .. }
                | OpKind::Unitary {
                    gate: Gate::X,
                    controls,
                    ..
                } => controls.is_empty(),
                _ => false,
            }
    }

    /// The qubits this instruction *mixes*, or `None` when it cannot join
    /// a fused gate group at all (measurements, resets, barriers, noise
    /// channels, and classically conditioned instructions).
    ///
    /// A gate mixes its target unless it is diagonal ([`Gate::is_diagonal`]);
    /// a swap mixes both operands. Controls never mix anything: they only
    /// select which amplitudes the gate touches, as does the target of a
    /// diagonal gate. This is the width the dense array's gate fusion
    /// counts, and the single definition the cost model shares with it.
    #[must_use]
    pub fn fusion_support(&self) -> Option<FusionSupport> {
        if self.cond.is_some() {
            return None;
        }
        match &self.kind {
            OpKind::Unitary { gate, target, .. } => Some(if gate.is_diagonal() {
                FusionSupport::EMPTY
            } else {
                FusionSupport {
                    qubits: [*target, 0],
                    len: 1,
                }
            }),
            OpKind::Swap { a, b, .. } => Some(FusionSupport {
                qubits: [*a, *b],
                len: 2,
            }),
            OpKind::Measure { .. }
            | OpKind::Reset { .. }
            | OpKind::Barrier(_)
            | OpKind::Channel { .. } => None,
        }
    }

    /// A short human-readable name, e.g. `"cx"` or `"measure"`.
    pub fn name(&self) -> String {
        match &self.kind {
            OpKind::Unitary { gate, controls, .. } => {
                format!("{}{}", "c".repeat(controls.len()), gate.name())
            }
            OpKind::Swap { controls, .. } => {
                format!("{}swap", "c".repeat(controls.len()))
            }
            OpKind::Measure { .. } => "measure".into(),
            OpKind::Reset { .. } => "reset".into(),
            OpKind::Barrier(_) => "barrier".into(),
            OpKind::Channel { .. } => "channel".into(),
        }
    }
}

/// The qubits one instruction touches, in [`Instruction::qubits`] order.
///
/// The target (or both swap operands, or the measured/reset qubit) is
/// held inline and the controls or barrier list are borrowed, so the
/// iterator is `Clone` and its `len` is exact without a heap copy.
#[derive(Debug, Clone)]
pub struct Qubits<'a> {
    lead: [usize; 2],
    next_lead: usize,
    lead_len: usize,
    rest: std::slice::Iter<'a, usize>,
}

impl Iterator for Qubits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next_lead < self.lead_len {
            self.next_lead += 1;
            Some(self.lead[self.next_lead - 1])
        } else {
            self.rest.next().copied()
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.lead_len - self.next_lead + self.rest.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for Qubits<'_> {}

/// The smallest qubit listed more than once, if any.
fn repeated_qubit(qubits: Qubits<'_>) -> Option<usize> {
    // Gates name a handful of qubits: a pairwise scan beats sorting a
    // copy. Wide barriers sort one.
    if qubits.len() <= 8 {
        let mut repeated: Option<usize> = None;
        for (i, q) in qubits.clone().enumerate() {
            if qubits.clone().skip(i + 1).any(|r| r == q) && repeated.is_none_or(|m| q < m) {
                repeated = Some(q);
            }
        }
        return repeated;
    }
    let mut sorted: Vec<usize> = qubits.collect();
    sorted.sort_unstable();
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// The at most two qubits one instruction mixes (see
/// [`Instruction::fusion_support`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionSupport {
    qubits: [usize; 2],
    len: usize,
}

impl FusionSupport {
    const EMPTY: FusionSupport = FusionSupport {
        qubits: [0; 2],
        len: 0,
    };

    /// The same support with every qubit renamed by `f` (a qubit map's
    /// view of the instruction, see [`QubitMap`]).
    #[must_use]
    pub fn map(self, f: impl Fn(usize) -> usize) -> FusionSupport {
        FusionSupport {
            qubits: self.qubits.map(f),
            len: self.len,
        }
    }

    /// The mixed qubits (target, or both swap operands; empty for a
    /// diagonal gate).
    #[must_use]
    pub fn qubits(&self) -> &[usize] {
        &self.qubits[..self.len]
    }

    /// Adds the mixed qubits to the ascending set `group` when the union
    /// holds at most `width` qubits, and reports whether it did (`group`
    /// is left untouched otherwise). This is the whole greedy fusion
    /// rule: a gate joins the open group while the group's mixed qubits
    /// fit the fusion width.
    pub fn merge_into(&self, group: &mut Vec<usize>, width: usize) -> bool {
        let new = self.qubits().iter().filter(|q| !group.contains(q)).count();
        // Swap operands are distinct, so `new` counts distinct qubits.
        if group.len() + new > width {
            return false;
        }
        for &q in self.qubits() {
            if let Err(at) = group.binary_search(&q) {
                group.insert(at, q);
            }
        }
        true
    }
}

/// The qubit permutation left behind by a stream of relabellings
/// ([`Instruction::is_relabelling`]): `get(q)` is the qubit that now
/// holds the state of qubit `q`. An uncontrolled `swap(a, b)` exchanges
/// the entries of `a` and `b`; an uncontrolled `x` leaves the map alone
/// (a value flip, not a renaming).
///
/// The map starts as the identity and grows only when a swap names a
/// qubit beyond it, so it needs no register width and allocates nothing
/// for a circuit without swaps.
///
/// # Example
///
/// ```
/// use qdt_circuit::{Circuit, QubitMap};
///
/// let mut qc = Circuit::new(3);
/// qc.swap(0, 2).x(1).cx(0, 1);
/// let mut map = QubitMap::default();
/// let relabelled: Vec<bool> = qc.iter().map(|i| map.relabel(i)).collect();
/// assert_eq!(relabelled, [true, true, false]);
/// assert_eq!((map.get(0), map.get(1), map.get(2)), (2, 1, 0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QubitMap {
    to: Vec<usize>,
}

impl QubitMap {
    /// The qubit holding qubit `q`'s state.
    #[must_use]
    pub fn get(&self, q: usize) -> usize {
        self.to.get(q).copied().unwrap_or(q)
    }

    /// Whether no qubit has moved.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.to.iter().enumerate().all(|(i, &q)| i == q)
    }

    /// Exchanges the entries of `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        let len = a.max(b) + 1;
        if self.to.len() < len {
            self.to.extend(self.to.len()..len);
        }
        self.to.swap(a, b);
    }

    /// Absorbs `inst` when it is a relabelling and reports whether it
    /// was: a swap exchanges two entries, an `x` changes nothing here.
    pub fn relabel(&mut self, inst: &Instruction) -> bool {
        if !inst.is_relabelling() {
            return false;
        }
        if let OpKind::Swap { a, b, .. } = inst.kind {
            self.swap(a, b);
        }
        true
    }
}

/// A quantum circuit: an ordered list of [`Instruction`]s over a register
/// of qubits and an optional classical register.
///
/// Builder methods return `&mut Self` so calls chain; they **panic** on
/// out-of-range or duplicate qubits (programming errors), while the
/// checked [`Circuit::push`] returns a [`CircuitError`] instead.
///
/// # Example
///
/// ```
/// use qdt_circuit::Circuit;
///
/// let mut qc = Circuit::new(3);
/// qc.h(0).cx(0, 1).cx(1, 2); // 3-qubit GHZ preparation
/// assert_eq!(qc.depth(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits and no classical
    /// bits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            num_clbits: 0,
            instructions: Vec::new(),
        }
    }

    /// Creates an empty circuit with both quantum and classical registers.
    pub fn with_clbits(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit {
            num_qubits,
            num_clbits,
            instructions: Vec::new(),
        }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` if the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instructions, in order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Attaches `cond` to the instruction at `index` (crate-internal: the
    /// QASM parser conditions broadcast statements after appending them).
    pub(crate) fn set_cond(&mut self, index: usize, cond: Option<Condition>) {
        self.instructions[index].cond = cond;
    }

    /// Appends `size` qubits (or classical bits) to the register and
    /// returns the index of the first, or `None` on overflow
    /// (crate-internal: the QASM parser widens the circuit as it meets
    /// `qreg`/`creg` declarations).
    pub(crate) fn widen(&mut self, classical: bool, size: usize) -> Option<usize> {
        let width = if classical {
            &mut self.num_clbits
        } else {
            &mut self.num_qubits
        };
        let first = *width;
        *width = first.checked_add(size)?;
        Some(first)
    }

    fn validate(&self, inst: &Instruction) -> Result<(), CircuitError> {
        inst.check_qubits(self.num_qubits)?;
        if let OpKind::Measure { clbit, .. } = inst.kind {
            if clbit >= self.num_clbits {
                return Err(CircuitError::ClbitOutOfRange {
                    clbit,
                    num_clbits: self.num_clbits,
                });
            }
        }
        if let Some(cond) = inst.cond {
            if cond.clbit >= self.num_clbits {
                return Err(CircuitError::ClbitOutOfRange {
                    clbit: cond.clbit,
                    num_clbits: self.num_clbits,
                });
            }
        }
        if let OpKind::Unitary { gate, .. } = &inst.kind {
            if !gate.has_finite_params() {
                return Err(CircuitError::NonFiniteParameter { gate: gate.name() });
            }
        }
        Ok(())
    }

    /// Appends an instruction after validating its qubit indices and
    /// gate angles.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if any index is out of range, a qubit is
    /// repeated within the instruction, or a gate angle is NaN or
    /// infinite.
    pub fn push(&mut self, inst: Instruction) -> Result<(), CircuitError> {
        self.validate(&inst)?;
        self.instructions.push(inst);
        Ok(())
    }

    /// Appends an instruction **without** validating it.
    ///
    /// Intended for building deliberately ill-formed circuits (e.g. to
    /// exercise `qdt-analysis` well-formedness lints) and for decoders of
    /// already-validated external formats. Everything else should use
    /// [`Circuit::push`].
    pub fn push_unchecked(&mut self, inst: Instruction) {
        self.instructions.push(inst);
    }

    /// Appends a unitary gate with the given controls, panicking on invalid
    /// indices (builder-style convenience).
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range or repeated.
    pub fn gate(&mut self, gate: Gate, target: usize, controls: &[usize]) -> &mut Self {
        let inst = Instruction::new(OpKind::Unitary {
            gate,
            target,
            controls: controls.to_vec(),
        });
        self.push(inst).expect("invalid gate qubits");
        self
    }

    /// Appends all instructions of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits or classical bits than `self`.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits && other.num_clbits <= self.num_clbits,
            "appended circuit does not fit"
        );
        self.instructions.extend(other.instructions.iter().cloned());
        self
    }

    // --- single-qubit builders -------------------------------------------

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::X, q, &[])
    }
    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::Y, q, &[])
    }
    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::Z, q, &[])
    }
    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::H, q, &[])
    }
    /// S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::S, q, &[])
    }
    /// S† gate on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::Sdg, q, &[])
    }
    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::T, q, &[])
    }
    /// T† gate on `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::Tdg, q, &[])
    }
    /// √X gate on `q`.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::Sx, q, &[])
    }
    /// X-rotation by `theta` on `q`.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(Gate::Rx(theta), q, &[])
    }
    /// Y-rotation by `theta` on `q`.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(Gate::Ry(theta), q, &[])
    }
    /// Z-rotation by `theta` on `q`.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(Gate::Rz(theta), q, &[])
    }
    /// Phase gate diag(1, e^{iθ}) on `q`.
    pub fn p(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(Gate::Phase(theta), q, &[])
    }
    /// Generic `U(θ, φ, λ)` on `q`.
    pub fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.gate(Gate::U(theta, phi, lambda), q, &[])
    }

    // --- multi-qubit builders --------------------------------------------

    /// CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.gate(Gate::X, t, &[c])
    }
    /// Controlled-Y.
    pub fn cy(&mut self, c: usize, t: usize) -> &mut Self {
        self.gate(Gate::Y, t, &[c])
    }
    /// Controlled-Z.
    pub fn cz(&mut self, c: usize, t: usize) -> &mut Self {
        self.gate(Gate::Z, t, &[c])
    }
    /// Controlled-Hadamard.
    pub fn ch(&mut self, c: usize, t: usize) -> &mut Self {
        self.gate(Gate::H, t, &[c])
    }
    /// Controlled phase gate.
    pub fn cp(&mut self, theta: f64, c: usize, t: usize) -> &mut Self {
        self.gate(Gate::Phase(theta), t, &[c])
    }
    /// Controlled Y-rotation.
    pub fn cry(&mut self, theta: f64, c: usize, t: usize) -> &mut Self {
        self.gate(Gate::Ry(theta), t, &[c])
    }
    /// Controlled Z-rotation.
    pub fn crz(&mut self, theta: f64, c: usize, t: usize) -> &mut Self {
        self.gate(Gate::Rz(theta), t, &[c])
    }
    /// Toffoli (CCX) with controls `c0`, `c1` and target `t`.
    pub fn ccx(&mut self, c0: usize, c1: usize, t: usize) -> &mut Self {
        self.gate(Gate::X, t, &[c0, c1])
    }
    /// CCZ with controls `c0`, `c1` and target `t`.
    pub fn ccz(&mut self, c0: usize, c1: usize, t: usize) -> &mut Self {
        self.gate(Gate::Z, t, &[c0, c1])
    }
    /// Multi-controlled X.
    pub fn mcx(&mut self, controls: &[usize], t: usize) -> &mut Self {
        self.gate(Gate::X, t, controls)
    }
    /// SWAP of qubits `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Instruction::new(OpKind::Swap {
            a,
            b,
            controls: vec![],
        }))
        .expect("invalid swap qubits");
        self
    }
    /// Fredkin (controlled-SWAP).
    ///
    /// # Panics
    ///
    /// Panics on invalid or duplicate qubit indices.
    pub fn cswap(&mut self, c: usize, a: usize, b: usize) -> &mut Self {
        self.push(Instruction::new(OpKind::Swap {
            a,
            b,
            controls: vec![c],
        }))
        .expect("invalid cswap qubits");
        self
    }

    // --- non-unitary builders --------------------------------------------

    /// Measures `qubit` into classical bit `clbit`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn measure(&mut self, qubit: usize, clbit: usize) -> &mut Self {
        self.push(Instruction::new(OpKind::Measure { qubit, clbit }))
            .expect("invalid measurement indices");
        self
    }

    /// Resets `qubit` to |0⟩.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn reset(&mut self, qubit: usize) -> &mut Self {
        self.push(Instruction::new(OpKind::Reset { qubit }))
            .expect("invalid reset index");
        self
    }

    /// Adds a barrier over all qubits.
    pub fn barrier(&mut self) -> &mut Self {
        let qs: Vec<usize> = (0..self.num_qubits).collect();
        self.push(Instruction::new(OpKind::Barrier(qs)))
            .expect("barrier cannot fail");
        self
    }

    /// Conditions the most recently appended instruction on
    /// `clbit == value` (mirrors Qiskit's `c_if`).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is empty or `clbit` is out of range for the
    /// classical register.
    pub fn c_if(&mut self, clbit: usize, value: bool) -> &mut Self {
        assert!(
            clbit < self.num_clbits,
            "c_if clbit {clbit} out of range for {} classical bits",
            self.num_clbits
        );
        let last = self
            .instructions
            .last_mut()
            .expect("c_if called on an empty circuit");
        last.cond = Some(Condition { clbit, value });
        self
    }

    // --- analysis ---------------------------------------------------------

    /// Returns `true` if every instruction is unitary (no measurement,
    /// reset, or barrier-only circuits count as unitary since barriers are
    /// semantic no-ops).
    pub fn is_unitary(&self) -> bool {
        self.instructions
            .iter()
            .all(|i| i.is_unitary() || matches!(i.kind, OpKind::Barrier(_)))
    }

    /// Returns `true` if the circuit needs per-shot dynamic execution:
    /// it contains a measurement, a reset, a noise channel, or a
    /// classically conditioned instruction.
    pub fn is_dynamic(&self) -> bool {
        self.static_prefix_len() < self.instructions.len()
    }

    /// Length of the static unitary prefix: the longest leading run of
    /// instructions that are unconditioned unitaries, swaps, or
    /// barriers. Everything from this index on is the *dynamic suffix*
    /// that a shot executor replays per shot.
    ///
    /// For a fully unitary circuit this is the instruction count, so the
    /// dynamic suffix is empty.
    pub fn static_prefix_len(&self) -> usize {
        self.instructions
            .iter()
            .position(|i| !(i.is_unitary() || matches!(i.kind, OpKind::Barrier(_))))
            .unwrap_or(self.instructions.len())
    }

    /// Splits the circuit at [`static_prefix_len`]: a unitary prefix
    /// circuit (runnable through the plain engine run-loop) and the
    /// dynamic suffix as an instruction slice.
    ///
    /// [`static_prefix_len`]: Circuit::static_prefix_len
    pub fn split_dynamic(&self) -> (Circuit, &[Instruction]) {
        let split = self.static_prefix_len();
        let mut prefix = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        prefix.instructions = self.instructions[..split].to_vec();
        (prefix, &self.instructions[split..])
    }

    /// Number of unitary gate instructions (barriers/measurements excluded).
    pub fn gate_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.is_unitary()).count()
    }

    /// Number of gates acting on two or more qubits.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.is_unitary() && i.qubits().len() >= 2)
            .count()
    }

    /// Number of T/T† gates — the standard cost metric for fault-tolerant
    /// execution (cf. Section V of the paper on T-count reduction).
    pub fn t_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| {
                matches!(
                    i.kind,
                    OpKind::Unitary {
                        gate: Gate::T | Gate::Tdg,
                        ..
                    }
                )
            })
            .count()
    }

    /// Gate counts keyed by instruction name (e.g. `"h"`, `"cx"`).
    pub fn count_by_name(&self) -> BTreeMap<String, usize> {
        let mut map = BTreeMap::new();
        for inst in &self.instructions {
            *map.entry(inst.name()).or_insert(0) += 1;
        }
        map
    }

    /// The circuit depth: the longest chain of instructions that must
    /// execute sequentially because they share qubits. Barriers force
    /// alignment across their qubits.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range qubit indices, which only circuits built
    /// via [`Circuit::push_unchecked`] can contain (use
    /// `qdt-analysis` to lint those first).
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.num_qubits];
        for inst in &self.instructions {
            let Some(level) = inst.qubits().map(|q| frontier[q]).max() else {
                continue;
            };
            let is_barrier = matches!(inst.kind, OpKind::Barrier(_));
            for q in inst.qubits() {
                frontier[q] = if is_barrier { level } else { level + 1 };
            }
        }
        frontier.into_iter().max().unwrap_or(0)
    }

    /// Returns the inverse circuit (gates reversed and inverted).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotInvertible`] if the circuit contains a
    /// measurement or reset.
    pub fn inverse(&self) -> Result<Circuit, CircuitError> {
        let mut inv = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        for inst in self.instructions.iter().rev() {
            if inst.cond.is_some() {
                // Undoing a conditioned gate would need the classical
                // register state at the original execution point.
                return Err(CircuitError::NotInvertible {
                    op: format!("conditioned {}", inst.name()),
                });
            }
            let mut kind = inst.kind.clone();
            match &mut kind {
                OpKind::Unitary { gate, .. } => *gate = gate.inverse(),
                OpKind::Swap { .. } | OpKind::Barrier(_) => {}
                other => {
                    return Err(CircuitError::NotInvertible {
                        op: format!("{other:?}"),
                    })
                }
            }
            inv.instructions.push(Instruction::new(kind));
        }
        Ok(inv)
    }

    /// Returns a copy with all measurements, resets, channels and
    /// barriers removed.
    pub fn unitary_part(&self) -> Circuit {
        let mut qc = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        qc.instructions = self
            .instructions
            .iter()
            .filter(|i| i.is_unitary())
            .cloned()
            .collect();
        qc
    }

    /// Remaps qubit indices through `layout` (`new[i] = layout[old[i]]`),
    /// e.g. to place a logical circuit onto physical qubits.
    ///
    /// # Panics
    ///
    /// Panics if `layout.len() != self.num_qubits()` or any mapped index is
    /// out of range for `new_width`.
    pub fn remap(&self, layout: &[usize], new_width: usize) -> Circuit {
        assert_eq!(layout.len(), self.num_qubits, "layout width mismatch");
        let m = |q: usize| {
            let p = layout[q];
            assert!(p < new_width, "layout target {p} out of range");
            p
        };
        let mut qc = Circuit::with_clbits(new_width, self.num_clbits);
        qc.instructions = self.instructions.iter().map(|i| i.remapped(m)).collect();
        qc
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Circuit({} qubits, {} clbits, {} instructions)",
            self.num_qubits,
            self.num_clbits,
            self.instructions.len()
        )?;
        for inst in &self.instructions {
            writeln!(
                f,
                "  {} {:?}",
                inst.name(),
                inst.qubits().collect::<Vec<_>>()
            )?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        assert_eq!(qc.len(), 2);
        assert_eq!(qc.num_qubits(), 2);
        assert!(qc.is_unitary());
    }

    #[test]
    fn push_validates_range() {
        let mut qc = Circuit::new(2);
        let err = qc
            .push(Instruction::new(OpKind::Unitary {
                gate: Gate::X,
                target: 5,
                controls: vec![],
            }))
            .unwrap_err();
        assert!(matches!(
            err,
            CircuitError::QubitOutOfRange { qubit: 5, .. }
        ));
    }

    #[test]
    fn push_validates_duplicates() {
        let mut qc = Circuit::new(2);
        let err = qc
            .push(Instruction::new(OpKind::Unitary {
                gate: Gate::X,
                target: 1,
                controls: vec![1],
            }))
            .unwrap_err();
        assert!(matches!(err, CircuitError::DuplicateQubit { qubit: 1 }));
    }

    #[test]
    fn push_validates_clbits() {
        let mut qc = Circuit::with_clbits(1, 1);
        let err = qc
            .push(Instruction::new(OpKind::Measure { qubit: 0, clbit: 3 }))
            .unwrap_err();
        assert!(matches!(
            err,
            CircuitError::ClbitOutOfRange { clbit: 3, .. }
        ));
    }

    #[test]
    fn push_rejects_non_finite_angles() {
        let mut qc = Circuit::new(2);
        for gate in [
            Gate::Rz(f64::NAN),
            Gate::Phase(f64::INFINITY),
            Gate::U(0.0, f64::NEG_INFINITY, 0.0),
        ] {
            for controls in [vec![], vec![1]] {
                let err = qc
                    .push(Instruction::new(OpKind::Unitary {
                        gate,
                        target: 0,
                        controls,
                    }))
                    .unwrap_err();
                assert_eq!(err, CircuitError::NonFiniteParameter { gate: gate.name() });
            }
        }
        assert!(qc.is_empty());
        qc.rz(1e300, 0);
        assert_eq!(qc.len(), 1);
    }

    #[test]
    fn qubits_iterate_without_a_copy_and_report_their_length() {
        let mut qc = Circuit::with_clbits(4, 1);
        qc.cswap(3, 0, 2).measure(1, 0).barrier();
        let qubits: Vec<Vec<usize>> = qc.iter().map(|i| i.qubits().collect()).collect();
        assert_eq!(qubits, vec![vec![0, 2, 3], vec![1], vec![0, 1, 2, 3]]);
        let mut swap = qc.instructions()[0].qubits();
        assert_eq!(swap.len(), 3);
        swap.next();
        assert_eq!(swap.len(), 2);
    }

    #[test]
    fn push_reports_the_smallest_repeated_qubit() {
        let mut qc = Circuit::new(12);
        let wide: Vec<usize> = (0..10).chain([7, 3]).collect();
        let err = qc
            .push(Instruction::new(OpKind::Barrier(wide)))
            .unwrap_err();
        assert_eq!(err, CircuitError::DuplicateQubit { qubit: 3 });
        let err = qc
            .push(Instruction::new(OpKind::Swap {
                a: 5,
                b: 2,
                controls: vec![5, 2],
            }))
            .unwrap_err();
        assert_eq!(err, CircuitError::DuplicateQubit { qubit: 2 });
    }

    #[test]
    fn channels_need_2x2_operators_and_keep_their_pauli_mix() {
        let no_ops = CircuitError::InvalidChannel {
            reason: "no Kraus operators",
        };
        assert_eq!(Channel::new(vec![]), Err(no_ops));
        assert!(Channel::new(vec![Matrix::identity(4)]).is_err());
        let flip = Channel::new(vec![Gate::X.matrix()]).unwrap();
        assert_eq!(flip.pauli_mix(), Some((&[Pauli::X][..], &[1.0][..])));
        let decay = Channel::new(vec![Gate::T.matrix(), Matrix::zeros(2, 2)]).unwrap();
        assert_eq!((decay.pauli_mix(), decay.kraus().len()), (None, 2));
    }

    #[test]
    #[should_panic(expected = "invalid gate qubits")]
    fn builder_panics_on_bad_index() {
        let mut qc = Circuit::new(1);
        qc.cx(0, 1);
    }

    #[test]
    fn depth_accounts_for_parallelism() {
        let mut qc = Circuit::new(3);
        qc.h(0).h(1).h(2); // all parallel
        assert_eq!(qc.depth(), 1);
        qc.cx(0, 1); // depends on two of them
        assert_eq!(qc.depth(), 2);
        qc.cx(1, 2);
        assert_eq!(qc.depth(), 3);
    }

    #[test]
    fn barrier_aligns_depth() {
        let mut qc = Circuit::new(2);
        qc.h(0);
        qc.barrier();
        qc.h(1); // must start after the barrier level
        assert_eq!(qc.depth(), 2);
    }

    #[test]
    fn counts() {
        let mut qc = Circuit::with_clbits(3, 3);
        qc.h(0).t(1).tdg(2).ccx(0, 1, 2).swap(0, 1).measure(2, 2);
        assert_eq!(qc.gate_count(), 5);
        assert_eq!(qc.t_count(), 2);
        assert_eq!(qc.two_qubit_gate_count(), 2); // ccx + swap
        let by_name = qc.count_by_name();
        assert_eq!(by_name["ccx"], 1);
        assert_eq!(by_name["measure"], 1);
        assert!(!qc.is_unitary());
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut qc = Circuit::new(2);
        qc.h(0).s(1).cx(0, 1);
        let inv = qc.inverse().unwrap();
        assert_eq!(inv.len(), 3);
        // Last gate of qc is cx; first of inverse must be cx.
        assert_eq!(inv.instructions()[0].name(), "cx");
        assert_eq!(inv.instructions()[2].name(), "h");
        // S became Sdg.
        assert!(matches!(
            inv.instructions()[1].kind,
            OpKind::Unitary {
                gate: Gate::Sdg,
                ..
            }
        ));
    }

    #[test]
    fn inverse_rejects_measurement() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0).measure(0, 0);
        assert!(matches!(
            qc.inverse(),
            Err(CircuitError::NotInvertible { .. })
        ));
    }

    #[test]
    fn c_if_conditions_last_instruction() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).measure(0, 0).x(1).c_if(0, true);
        let inst = qc.instructions().last().unwrap();
        assert_eq!(
            inst.cond,
            Some(Condition {
                clbit: 0,
                value: true
            })
        );
        // A conditioned gate is not unitary as a map on the state alone.
        assert!(!inst.is_unitary());
        assert!(!qc.is_unitary());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn c_if_rejects_bad_clbit() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.x(0).c_if(4, true);
    }

    #[test]
    fn inverse_rejects_conditioned_gates() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.x(0).c_if(0, true);
        assert!(matches!(
            qc.inverse(),
            Err(CircuitError::NotInvertible { .. })
        ));
    }

    #[test]
    fn remap_preserves_condition() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.x(0).c_if(0, false);
        let mapped = qc.remap(&[1, 0], 2);
        assert_eq!(
            mapped.instructions()[0].cond,
            Some(Condition {
                clbit: 0,
                value: false
            })
        );
    }

    #[test]
    fn push_validates_condition_clbit() {
        let mut qc = Circuit::with_clbits(1, 1);
        let inst = Instruction::new(OpKind::Unitary {
            gate: Gate::X,
            target: 0,
            controls: vec![],
        })
        .with_cond(7, true);
        let err = qc.push(inst).unwrap_err();
        assert!(matches!(
            err,
            CircuitError::ClbitOutOfRange { clbit: 7, .. }
        ));
    }

    #[test]
    fn unitary_part_strips_non_unitary() {
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).measure(0, 0).cx(0, 1).reset(1);
        let u = qc.unitary_part();
        assert_eq!(u.len(), 2);
        assert!(u.is_unitary());
    }

    #[test]
    fn remap_moves_qubits() {
        let mut qc = Circuit::new(2);
        qc.cx(0, 1);
        let mapped = qc.remap(&[3, 1], 4);
        assert_eq!(mapped.num_qubits(), 4);
        // target 1, control 3
        assert_eq!(
            mapped.instructions()[0].qubits().collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn append_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.append(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn instruction_qubits_order() {
        let mut qc = Circuit::new(3);
        qc.ccx(2, 1, 0);
        assert_eq!(
            qc.instructions()[0].qubits().collect::<Vec<_>>(),
            vec![0, 2, 1]
        );
        assert_eq!(qc.instructions()[0].name(), "ccx");
    }

    #[test]
    fn into_iterator_works() {
        let mut qc = Circuit::new(1);
        qc.h(0).x(0);
        let names: Vec<String> = (&qc).into_iter().map(|i| i.name()).collect();
        assert_eq!(names, vec!["h", "x"]);
    }
}
