//! Gate decomposition and basis rebasing.

use std::f64::consts::{FRAC_PI_2, PI};

use qdt_circuit::{Circuit, Gate, Instruction, OpKind};
use qdt_complex::{zyz_decompose, Matrix};

use crate::target::GateSet;
use crate::CompileError;

/// Rebases a circuit onto a target gate set: multi-qubit gates unfold to
/// {1q, CX/CZ}; single-qubit gates map to the basis vocabulary.
///
/// The result is equivalent to the input **up to a global phase**
/// (single-qubit rebasing through Euler angles drops phases; all other
/// decompositions are exact).
///
/// # Errors
///
/// Returns [`CompileError::NotRepresentable`] when a continuous rotation
/// hits a discrete basis (e.g. `Rz(0.3)` under Clifford+T) or a gate has
/// more than 15 controls (its parity network would have 2^16 terms or
/// more), and [`CompileError::NonUnitary`] only never — measurements,
/// resets, noise channels and barriers pass through untouched.
pub fn rebase(circuit: &Circuit, gate_set: &GateSet) -> Result<Circuit, CompileError> {
    let mut out = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    for inst in circuit {
        emit_instruction(&mut out, inst, gate_set)?;
    }
    Ok(out)
}

/// The number of instructions [`rebase`] lowers one instruction to on
/// `gate_set`: 1 for a gate already in the set and for the measurements,
/// resets, channels and barriers that pass through untouched. Multi-controlled
/// gates are counted in closed form, without building their lowering.
///
/// This is the instruction's cost after compilation, the weight by which
/// a DD miter pairs a source circuit's gates with its compiled form's.
///
/// # Errors
///
/// The [`rebase`] errors for an instruction the set cannot express.
pub fn lowered_len(inst: &Instruction, gate_set: &GateSet) -> Result<usize, CompileError> {
    match &inst.kind {
        // The parity network has 2^n terms: count it, do not build it.
        OpKind::Unitary { gate, controls, .. } if controls.len() > 2 => {
            multi_controlled_len(*gate, controls.len(), gate_set)
        }
        OpKind::Unitary { .. } | OpKind::Swap { .. } => {
            let width = inst.qubits().max().map_or(1, |q| q + 1);
            let mut out = Circuit::new(width);
            emit_instruction(&mut out, inst, gate_set)?;
            Ok(out.len())
        }
        OpKind::Measure { .. }
        | OpKind::Reset { .. }
        | OpKind::Barrier(_)
        | OpKind::Channel { .. } => Ok(1),
    }
}

/// Emits one instruction in the basis; non-unitary ones pass through.
fn emit_instruction(
    out: &mut Circuit,
    inst: &Instruction,
    gate_set: &GateSet,
) -> Result<(), CompileError> {
    match &inst.kind {
        OpKind::Measure { .. }
        | OpKind::Reset { .. }
        | OpKind::Barrier(_)
        | OpKind::Channel { .. } => {
            out.push(inst.clone()).expect("same register sizes");
        }
        OpKind::Swap { a, b, controls } => match controls.len() {
            0 => {
                if matches!(gate_set, GateSet::Universal) {
                    out.push(inst.clone()).expect("validated");
                } else {
                    emit_swap(out, *a, *b, gate_set)?;
                }
            }
            1 => {
                // Fredkin = CX(b→a) · CCX(c,a→b) · CX(b→a).
                emit_controlled(out, Gate::X, *b, *a, gate_set)?;
                emit_ccx(out, controls[0], *a, *b, gate_set)?;
                emit_controlled(out, Gate::X, *b, *a, gate_set)?;
            }
            _ => return Err(CompileError::GateTooWide { op: inst.name() }),
        },
        OpKind::Unitary {
            gate,
            target,
            controls,
        } => match controls.len() {
            0 => emit_1q(out, *gate, *target, gate_set)?,
            1 => emit_controlled(out, *gate, controls[0], *target, gate_set)?,
            2 if matches!(gate, Gate::X) => {
                emit_ccx(out, controls[0], controls[1], *target, gate_set)?;
            }
            2 if matches!(gate, Gate::Z) => {
                emit_1q(out, Gate::H, *target, gate_set)?;
                emit_ccx(out, controls[0], controls[1], *target, gate_set)?;
                emit_1q(out, Gate::H, *target, gate_set)?;
            }
            _ => {
                // n-controlled phase-style construction: works for
                // any diagonalisable target via H-conjugation when
                // the gate is X or Z; everything else goes through a
                // single borrowed construction on Phase gates.
                emit_multi_controlled(out, *gate, controls, *target, gate_set)?;
            }
        },
    }
    Ok(())
}

/// Emits a 1-qubit gate in the basis.
fn emit_1q(out: &mut Circuit, gate: Gate, q: usize, gs: &GateSet) -> Result<(), CompileError> {
    if gs.contains_1q(&gate) {
        out.gate(gate, q, &[]);
        return Ok(());
    }
    match gs {
        GateSet::Universal => {
            out.gate(gate, q, &[]);
            Ok(())
        }
        GateSet::CliffordT => emit_clifford_t_1q(out, gate, q),
        GateSet::IbmBasis => {
            // U = e^{iα} Rz(β) Ry(γ) Rz(δ) with Ry(γ) = √X†·Rz(γ)·√X up
            // to phases; the standard ZXZXZ identity:
            // U ≅ Rz(β+π) · √X · Rz(γ+π) · √X · Rz(δ) (global phase
            // dropped).
            let a = zyz_decompose(&gate.matrix());
            out.rz(a.delta, q);
            out.sx(q);
            out.rz(a.gamma + PI, q);
            out.sx(q);
            out.rz(a.beta + PI, q);
            Ok(())
        }
        GateSet::RzRxCz => {
            // Rz(β)·Ry(γ)·Rz(δ) with Ry(γ) = Rz(π/2)·Rx(γ)·Rz(−π/2)
            // (rotating the x-axis into y), global phase dropped.
            let a = zyz_decompose(&gate.matrix());
            out.rz(a.delta - FRAC_PI_2, q);
            out.rx(a.gamma, q);
            out.rz(a.beta + FRAC_PI_2, q);
            Ok(())
        }
    }
}

/// Exact Clifford+T expansions for the non-native members of the IR
/// alphabet; continuous rotations must be multiples of π/4.
fn emit_clifford_t_1q(out: &mut Circuit, gate: Gate, q: usize) -> Result<(), CompileError> {
    let not_representable = || CompileError::NotRepresentable {
        gate: gate.to_string(),
        basis: "clifford+t".into(),
    };
    // Reduce angles to eighths of 2π.
    let eighths = |t: f64| -> Option<i64> {
        let r = t / (PI / 4.0);
        ((r - r.round()).abs() < 1e-12).then_some((r.round() as i64).rem_euclid(8))
    };
    match gate {
        Gate::Sx => {
            // √X = H·S·H up to phase? √X = e^{iπ/4}·Rx(π/2) = H S H·(phase)
            out.h(q);
            out.s(q);
            out.h(q);
            Ok(())
        }
        Gate::Sxdg => {
            out.h(q);
            out.sdg(q);
            out.h(q);
            Ok(())
        }
        Gate::Phase(t) | Gate::Rz(t) => {
            let k = eighths(t).ok_or_else(not_representable)?;
            emit_z_eighths(out, k, q);
            Ok(())
        }
        Gate::Rx(t) => {
            let k = eighths(t).ok_or_else(not_representable)?;
            out.h(q);
            emit_z_eighths(out, k, q);
            out.h(q);
            Ok(())
        }
        Gate::Ry(t) => {
            let k = eighths(t).ok_or_else(not_representable)?;
            // Ry(θ) = S·Rx(θ)·S† up to nothing (exact conjugation).
            out.sdg(q);
            out.h(q);
            emit_z_eighths(out, k, q);
            out.h(q);
            out.s(q);
            Ok(())
        }
        Gate::U(theta, phi, lambda) => {
            // U = P(φ)·Ry(θ)·P(λ).
            emit_clifford_t_1q(out, Gate::Phase(lambda), q)?;
            emit_clifford_t_1q(out, Gate::Ry(theta), q)?;
            emit_clifford_t_1q(out, Gate::Phase(phi), q)?;
            Ok(())
        }
        _ => Err(not_representable()),
    }
}

/// Emits `P(k·π/4)` as a product of Z/S/T gates.
fn emit_z_eighths(out: &mut Circuit, k: i64, q: usize) {
    match k.rem_euclid(8) {
        0 => {}
        1 => {
            out.t(q);
        }
        2 => {
            out.s(q);
        }
        3 => {
            out.s(q).t(q);
        }
        4 => {
            out.z(q);
        }
        5 => {
            out.z(q).t(q);
        }
        6 => {
            out.sdg(q);
        }
        7 => {
            out.tdg(q);
        }
        _ => unreachable!(),
    }
}

/// Emits the set's native entangler on `(c, t)`.
fn emit_entangler(out: &mut Circuit, c: usize, t: usize, gs: &GateSet) -> Result<(), CompileError> {
    match gs.entangler() {
        Gate::Z => {
            out.cz(c, t);
            Ok(())
        }
        _ => match gs {
            GateSet::RzRxCz => unreachable!("cz handled above"),
            _ => {
                out.cx(c, t);
                Ok(())
            }
        },
    }
}

/// Emits CX in terms of the native entangler.
fn emit_cx(out: &mut Circuit, c: usize, t: usize, gs: &GateSet) -> Result<(), CompileError> {
    if gs.contains_controlled(&Gate::X) || matches!(gs, GateSet::Universal) {
        out.cx(c, t);
        Ok(())
    } else {
        // CX = (I⊗H)·CZ·(I⊗H).
        emit_1q(out, Gate::H, t, gs)?;
        emit_entangler(out, c, t, gs)?;
        emit_1q(out, Gate::H, t, gs)?;
        Ok(())
    }
}

fn emit_swap(out: &mut Circuit, a: usize, b: usize, gs: &GateSet) -> Result<(), CompileError> {
    emit_cx(out, a, b, gs)?;
    emit_cx(out, b, a, gs)?;
    emit_cx(out, a, b, gs)?;
    Ok(())
}

/// Emits a singly-controlled gate.
fn emit_controlled(
    out: &mut Circuit,
    gate: Gate,
    c: usize,
    t: usize,
    gs: &GateSet,
) -> Result<(), CompileError> {
    if gs.contains_controlled(&gate) {
        out.gate(gate, t, &[c]);
        return Ok(());
    }
    if matches!(gs, GateSet::Universal) {
        out.gate(gate, t, &[c]);
        return Ok(());
    }
    match gate {
        Gate::X => emit_cx(out, c, t, gs),
        Gate::Z => {
            emit_1q(out, Gate::H, t, gs)?;
            emit_cx(out, c, t, gs)?;
            emit_1q(out, Gate::H, t, gs)?;
            Ok(())
        }
        Gate::I => Ok(()),
        other => {
            // Generic two-CX construction from the ZYZ angles:
            // CU = P(α)_c · A_t · CX · B_t · CX · C_t.
            let a = zyz_decompose(&other.matrix());
            emit_1q(out, Gate::Rz((a.delta - a.beta) / 2.0), t, gs)?;
            emit_cx(out, c, t, gs)?;
            emit_1q(out, Gate::Rz(-(a.delta + a.beta) / 2.0), t, gs)?;
            emit_1q(out, Gate::Ry(-a.gamma / 2.0), t, gs)?;
            emit_cx(out, c, t, gs)?;
            emit_1q(out, Gate::Ry(a.gamma / 2.0), t, gs)?;
            emit_1q(out, Gate::Rz(a.beta), t, gs)?;
            emit_1q(out, Gate::Phase(a.alpha), c, gs)?;
            Ok(())
        }
    }
}

/// The standard 6-CX Clifford+T Toffoli.
fn emit_ccx(
    out: &mut Circuit,
    c0: usize,
    c1: usize,
    t: usize,
    gs: &GateSet,
) -> Result<(), CompileError> {
    emit_1q(out, Gate::H, t, gs)?;
    emit_cx(out, c1, t, gs)?;
    emit_1q(out, Gate::Tdg, t, gs)?;
    emit_cx(out, c0, t, gs)?;
    emit_1q(out, Gate::T, t, gs)?;
    emit_cx(out, c1, t, gs)?;
    emit_1q(out, Gate::Tdg, t, gs)?;
    emit_cx(out, c0, t, gs)?;
    emit_1q(out, Gate::T, c1, gs)?;
    emit_1q(out, Gate::T, t, gs)?;
    emit_1q(out, Gate::H, t, gs)?;
    emit_cx(out, c0, c1, gs)?;
    emit_1q(out, Gate::T, c0, gs)?;
    emit_1q(out, Gate::Tdg, c1, gs)?;
    emit_cx(out, c0, c1, gs)?;
    Ok(())
}

/// Multi-controlled gates via the parity-network construction: an
/// `n`-controlled phase `MCP(θ)` decomposes into `P(±θ/2^{n−1})` gates on
/// all subset parities; `MCX` is the H-conjugated `MCP(π)`.
///
/// Exact but exponential in the control count (fine for the ≤6 controls
/// realistic circuits use, and refused past [`MAX_PARITY_QUBITS`]);
/// diagonal targets use the construction directly, X/Z targets via
/// conjugation, anything else is rejected.
fn emit_multi_controlled(
    out: &mut Circuit,
    gate: Gate,
    controls: &[usize],
    target: usize,
    gs: &GateSet,
) -> Result<(), CompileError> {
    let theta = parity_network_angle(gate, controls.len(), gs)?;
    let mut qubits = controls.to_vec();
    qubits.push(target);
    if matches!(gate, Gate::X) {
        emit_1q(out, Gate::H, target, gs)?;
        emit_mcp(out, theta, &qubits, gs)?;
        emit_1q(out, Gate::H, target, gs)
    } else {
        emit_mcp(out, theta, &qubits, gs)
    }
}

/// The widest parity network [`emit_mcp`] builds, in qubits (controls
/// plus target): it has `2^n − 1` terms.
const MAX_PARITY_QUBITS: usize = 16;

/// The phase `θ` of the `MCP(θ)` that [`emit_multi_controlled`] builds
/// for `gate` under `controls` controls, or why it cannot.
fn parity_network_angle(gate: Gate, controls: usize, gs: &GateSet) -> Result<f64, CompileError> {
    let theta = match gate {
        Gate::X | Gate::Z => PI,
        Gate::Phase(theta) => theta,
        _ => return Err(not_multi_controllable(gate, controls, gs)),
    };
    if controls + 1 > MAX_PARITY_QUBITS {
        return Err(not_multi_controllable(gate, controls, gs));
    }
    Ok(theta)
}

fn not_multi_controllable(gate: Gate, controls: usize, gs: &GateSet) -> CompileError {
    CompileError::NotRepresentable {
        gate: format!("{controls}-controlled {}", gate.name()),
        basis: gs.name().into(),
    }
}

/// The length of [`emit_multi_controlled`]'s output, counted in closed
/// form: the subsets of size `k` each fold with `2(k−1)` CX around one
/// phase, odd sizes `P(+θ/2^{n−1})`, even ones `P(−θ/2^{n−1})`.
fn multi_controlled_len(gate: Gate, controls: usize, gs: &GateSet) -> Result<usize, CompileError> {
    let theta = parity_network_angle(gate, controls, gs)?;
    let len_of = |emit: &dyn Fn(&mut Circuit) -> Result<(), CompileError>| {
        let mut scratch = Circuit::new(2);
        emit(&mut scratch).map(|()| scratch.len())
    };
    let n = controls + 1;
    let base = theta / f64::powi(2.0, n as i32 - 1);
    let cx = len_of(&|c| emit_cx(c, 0, 1, gs))?;
    let odd = len_of(&|c| emit_1q(c, Gate::Phase(base), 0, gs))?;
    let even = len_of(&|c| emit_1q(c, Gate::Phase(-base), 0, gs))?;
    let mut len = 0;
    let mut subsets = 1; // C(n, k), starting from C(n, 0)
    for k in 1..=n {
        subsets = subsets * (n - k + 1) / k;
        len += subsets * (2 * (k - 1) * cx + if k % 2 == 1 { odd } else { even });
    }
    if matches!(gate, Gate::X) {
        len += 2 * len_of(&|c| emit_1q(c, Gate::H, 0, gs))?;
    }
    Ok(len)
}

/// Emits the diagonal `exp(iθ·b_0b_1…b_{n−1})` on the given qubits via
/// parity phases: `Π b_i = Σ_{∅≠S} (−1)^{|S|+1} ⊕_{i∈S} b_i / 2^{n−1}`.
fn emit_mcp(
    out: &mut Circuit,
    theta: f64,
    qubits: &[usize],
    gs: &GateSet,
) -> Result<(), CompileError> {
    let n = qubits.len();
    debug_assert!(
        (1..=MAX_PARITY_QUBITS).contains(&n),
        "checked by the caller"
    );
    if n == 1 {
        return emit_1q(out, Gate::Phase(theta), qubits[0], gs);
    }
    let base = theta / f64::powi(2.0, n as i32 - 1);
    for s in 1usize..(1 << n) {
        let bits: Vec<usize> = (0..n).filter(|i| s & (1 << i) != 0).collect();
        let sign = if bits.len() % 2 == 1 { 1.0 } else { -1.0 };
        let last = qubits[*bits.last().expect("non-empty subset")];
        // Fold the parity into `last`, phase it, unfold.
        for &i in &bits[..bits.len() - 1] {
            emit_cx(out, qubits[i], last, gs)?;
        }
        emit_1q(out, Gate::Phase(sign * base), last, gs)?;
        for &i in bits[..bits.len() - 1].iter().rev() {
            emit_cx(out, qubits[i], last, gs)?;
        }
    }
    Ok(())
}

/// Fuses a run of single-qubit gates into one matrix (used by the
/// optimiser; exposed for reuse).
pub fn matrix_of_run(gates: &[Gate]) -> Matrix {
    let mut m = Matrix::identity(2);
    for g in gates {
        m = g.matrix().mul(&m);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_array::circuit_unitary;
    use qdt_circuit::generators;

    fn assert_equiv_up_to_phase(a: &Circuit, b: &Circuit) {
        let ua = circuit_unitary(a).unwrap();
        let ub = circuit_unitary(b).unwrap();
        assert!(
            ua.approx_eq_up_to_global_phase(&ub, 1e-8),
            "not equivalent:\n{a}\nvs\n{b}"
        );
    }

    #[test]
    fn ibm_basis_rebases_all_1q_gates() {
        for g in [
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Y,
            Gate::Z,
            Gate::Ry(0.7),
            Gate::Rx(-1.1),
            Gate::U(0.3, 1.2, -0.4),
            Gate::Sxdg,
        ] {
            let mut qc = Circuit::new(1);
            qc.gate(g, 0, &[]);
            let rebased = rebase(&qc, &GateSet::ibm_basis()).unwrap();
            for inst in &rebased {
                if let OpKind::Unitary { gate, controls, .. } = &inst.kind {
                    assert!(
                        controls.is_empty() && GateSet::ibm_basis().contains_1q(gate),
                        "non-native gate {gate} in output"
                    );
                }
            }
            assert_equiv_up_to_phase(&qc, &rebased);
        }
    }

    #[test]
    fn rzrxcz_basis_rebases() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).t(1).swap(0, 1);
        let rebased = rebase(&qc, &GateSet::RzRxCz).unwrap();
        for inst in &rebased {
            if let OpKind::Unitary { gate, controls, .. } = &inst.kind {
                match controls.len() {
                    0 => assert!(GateSet::RzRxCz.contains_1q(gate), "bad 1q {gate}"),
                    1 => assert!(matches!(gate, Gate::Z), "bad 2q {gate}"),
                    _ => panic!("wide gate survived"),
                }
            }
        }
        assert_equiv_up_to_phase(&qc, &rebased);
    }

    #[test]
    fn clifford_t_rebases_exact_angles() {
        let mut qc = Circuit::new(1);
        qc.rz(std::f64::consts::FRAC_PI_4, 0)
            .rx(std::f64::consts::PI, 0)
            .sx(0);
        let rebased = rebase(&qc, &GateSet::clifford_t()).unwrap();
        assert_equiv_up_to_phase(&qc, &rebased);
    }

    #[test]
    fn clifford_t_rejects_generic_angles() {
        let mut qc = Circuit::new(1);
        qc.rz(0.3, 0);
        assert!(matches!(
            rebase(&qc, &GateSet::clifford_t()),
            Err(CompileError::NotRepresentable { .. })
        ));
    }

    #[test]
    fn toffoli_decomposition_equivalent() {
        let mut qc = Circuit::new(3);
        qc.ccx(2, 0, 1);
        let rebased = rebase(&qc, &GateSet::clifford_t()).unwrap();
        assert!(rebased.two_qubit_gate_count() >= 6);
        assert_equiv_up_to_phase(&qc, &rebased);
    }

    #[test]
    fn ccz_and_fredkin_equivalent() {
        let mut qc = Circuit::new(3);
        qc.ccz(0, 1, 2);
        assert_equiv_up_to_phase(&qc, &rebase(&qc, &GateSet::ibm_basis()).unwrap());
        let mut qc = Circuit::new(3);
        qc.cswap(2, 0, 1);
        assert_equiv_up_to_phase(&qc, &rebase(&qc, &GateSet::ibm_basis()).unwrap());
    }

    #[test]
    fn controlled_u_generic_construction() {
        for g in [Gate::H, Gate::Y, Gate::Ry(0.8), Gate::U(0.5, 0.2, -0.9)] {
            let mut qc = Circuit::new(2);
            qc.gate(g, 1, &[0]);
            let rebased = rebase(&qc, &GateSet::ibm_basis()).unwrap();
            assert_equiv_up_to_phase(&qc, &rebased);
        }
    }

    #[test]
    fn multi_controlled_x_and_phase() {
        let mut qc = Circuit::new(4);
        qc.mcx(&[0, 1, 2], 3);
        let rebased = rebase(&qc, &GateSet::ibm_basis()).unwrap();
        assert_equiv_up_to_phase(&qc, &rebased);

        let mut qc = Circuit::new(4);
        qc.gate(Gate::Phase(0.9), 3, &[0, 1, 2]);
        let rebased = rebase(&qc, &GateSet::universal()).unwrap();
        assert_equiv_up_to_phase(&qc, &rebased);
    }

    #[test]
    fn grover_rebases_end_to_end() {
        let qc = generators::grover(3, 0b101, 1);
        let rebased = rebase(&qc, &GateSet::ibm_basis()).unwrap();
        assert_equiv_up_to_phase(&qc, &rebased);
    }

    #[test]
    fn lowered_len_counts_what_rebase_emits() {
        let ibm = GateSet::ibm_basis();
        let mut qc = Circuit::with_clbits(3, 1);
        qc.rz(0.3, 0)
            .cx(0, 1)
            .h(0)
            .swap(0, 2)
            .cp(0.4, 1, 2)
            .ccx(0, 1, 2);
        qc.measure(0, 0);
        let lens: Vec<usize> = qc.iter().map(|i| lowered_len(i, &ibm).unwrap()).collect();
        // H, T, T† become 5 gates each (ZXZXZ); a Toffoli has 9 of them and 6 CX.
        assert_eq!(lens, [1, 1, 5, 3, 20, 9 * 5 + 6, 1]);
        assert_eq!(lens.iter().sum::<usize>(), rebase(&qc, &ibm).unwrap().len());
    }

    #[test]
    fn lowered_len_counts_parity_networks_without_building_them() {
        let sets = [
            GateSet::ibm_basis(),
            GateSet::RzRxCz,
            GateSet::clifford_t(),
            GateSet::universal(),
        ];
        for gs in &sets {
            for controls in 2..=5 {
                let qubits: Vec<usize> = (0..controls).collect();
                for gate in [Gate::X, Gate::Z, Gate::Phase(0.7), Gate::Phase(4.0 * PI)] {
                    let mut qc = Circuit::new(controls + 1);
                    qc.gate(gate, controls, &qubits);
                    let counted = lowered_len(&qc.instructions()[0], gs);
                    match rebase(&qc, gs) {
                        Ok(built) => assert_eq!(counted, Ok(built.len()), "{gs:?} {qc:?}"),
                        Err(e) => assert_eq!(counted, Err(e), "{gs:?} {qc:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn parity_networks_past_sixteen_qubits_are_refused_not_built() {
        let ibm = GateSet::ibm_basis();
        let mut qc = Circuit::new(17);
        qc.mcx(&(0..16).collect::<Vec<_>>(), 16);
        let refused = Err(CompileError::NotRepresentable {
            gate: "16-controlled x".into(),
            basis: ibm.name().into(),
        });
        assert_eq!(rebase(&qc, &ibm).map(|c| c.len()), refused);
        assert_eq!(lowered_len(&qc.instructions()[0], &ibm), refused);
        // 15 controls: 2^16 − 1 parity terms, counted in closed form.
        let mut qc = Circuit::new(16);
        qc.mcx(&(0..15).collect::<Vec<_>>(), 15);
        assert!(lowered_len(&qc.instructions()[0], &ibm).unwrap() > 1 << 16);
    }

    #[test]
    fn measurement_passes_through() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0).measure(0, 0);
        let rebased = rebase(&qc, &GateSet::ibm_basis()).unwrap();
        assert_eq!(rebased.count_by_name()["measure"], 1);
    }

    use qdt_circuit::Circuit;
}
