//! Translating circuits into ZX-diagrams.
//!
//! Gates outside the native ZX vocabulary (Z/X phase spiders, CX, CZ) are
//! lowered through standard decompositions first: controlled-phase gates
//! via the diagonal two-CNOT construction, arbitrary controlled-U via the
//! ZYZ two-CNOT construction, Toffoli via its 6-CNOT Clifford+T circuit.
//! All translations are **scalar-exact**: the diagram (including its
//! [`Scalar`](crate::Scalar)) denotes precisely the circuit unitary.

use qdt_circuit::{Circuit, Gate, OpKind};
use qdt_complex::zyz_decompose;

use crate::diagram::{Diagram, EdgeType, VertexKind};
use crate::{Phase, ZxError};

/// A circuit lowered to the ZX-native vocabulary.
enum LoweredOp {
    /// A single-qubit gate (any [`Gate`]).
    G1(Gate, usize),
    /// CNOT control → target.
    Cx(usize, usize),
    /// CZ on a pair.
    Cz(usize, usize),
    /// Wire crossing.
    Swap(usize, usize),
}

fn unsupported(op: impl Into<String>) -> ZxError {
    ZxError::Unsupported { op: op.into() }
}

fn lower(circuit: &Circuit) -> Result<Vec<LoweredOp>, ZxError> {
    let mut out = Vec::new();
    for inst in circuit {
        if inst.cond.is_some() {
            // ZX-diagrams denote fixed linear maps; a classically
            // conditioned gate is not one.
            return Err(unsupported(format!(
                "conditioned {} — a ZX-diagram denotes one fixed linear map; run \
                 dynamic circuits on an engine with `Capabilities::dynamic` \
                 (array, decision-diagram, mps, or stabilizer)",
                inst.name()
            )));
        }
        match &inst.kind {
            OpKind::Barrier(_) => {}
            OpKind::Measure { .. } | OpKind::Reset { .. } | OpKind::Channel { .. } => {
                return Err(unsupported(format!(
                    "{} — a ZX-diagram denotes one fixed linear map; run dynamic \
                     circuits on an engine with `Capabilities::dynamic` (array, \
                     decision-diagram, or mps)",
                    inst.name()
                )));
            }
            OpKind::Swap { a, b, controls } => match controls.len() {
                0 => out.push(LoweredOp::Swap(*a, *b)),
                1 => {
                    // Fredkin = CX(b→a) · CCX(c,a→b) · CX(b→a).
                    out.push(LoweredOp::Cx(*b, *a));
                    lower_ccx(controls[0], *a, *b, &mut out);
                    out.push(LoweredOp::Cx(*b, *a));
                }
                n => return Err(unsupported(format!("swap with {n} controls"))),
            },
            OpKind::Unitary {
                gate,
                target,
                controls,
            } => match controls.len() {
                0 => out.push(LoweredOp::G1(*gate, *target)),
                1 => lower_controlled(*gate, controls[0], *target, &mut out)?,
                2 => match gate {
                    Gate::X => lower_ccx(controls[0], controls[1], *target, &mut out),
                    Gate::Z => {
                        out.push(LoweredOp::G1(Gate::H, *target));
                        lower_ccx(controls[0], controls[1], *target, &mut out);
                        out.push(LoweredOp::G1(Gate::H, *target));
                    }
                    other => {
                        return Err(unsupported(format!("cc{} gate", other.name())));
                    }
                },
                n => return Err(unsupported(format!("{n}-controlled gate"))),
            },
        }
    }
    Ok(out)
}

/// The diagonal controlled-phase construction:
/// `CP(θ) = P(θ/2)_c · P(θ/2)_t · CX · P(−θ/2)_t · CX`.
fn lower_cp(theta: f64, c: usize, t: usize, out: &mut Vec<LoweredOp>) {
    out.push(LoweredOp::Cx(c, t));
    out.push(LoweredOp::G1(Gate::Phase(-theta / 2.0), t));
    out.push(LoweredOp::Cx(c, t));
    out.push(LoweredOp::G1(Gate::Phase(theta / 2.0), t));
    out.push(LoweredOp::G1(Gate::Phase(theta / 2.0), c));
}

fn lower_controlled(
    gate: Gate,
    c: usize,
    t: usize,
    out: &mut Vec<LoweredOp>,
) -> Result<(), ZxError> {
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
    match gate {
        Gate::X => out.push(LoweredOp::Cx(c, t)),
        Gate::Z => out.push(LoweredOp::Cz(c, t)),
        Gate::I => {}
        Gate::Phase(theta) => lower_cp(theta, c, t, out),
        Gate::S => lower_cp(FRAC_PI_2, c, t, out),
        Gate::Sdg => lower_cp(-FRAC_PI_2, c, t, out),
        Gate::T => lower_cp(FRAC_PI_4, c, t, out),
        Gate::Tdg => lower_cp(-FRAC_PI_4, c, t, out),
        Gate::Rz(theta) => {
            // CRz(θ) = P(−θ/2)_c · CP(θ).
            lower_cp(theta, c, t, out);
            out.push(LoweredOp::G1(Gate::Phase(-theta / 2.0), c));
        }
        other => {
            // Generic CU via ZYZ: U = e^{iα} Rz(β) Ry(γ) Rz(δ);
            // CU = P(α)_c · A_t · CX · B_t · CX · C_t with
            // A = Rz(β)Ry(γ/2), B = Ry(−γ/2)Rz(−(δ+β)/2), C = Rz((δ−β)/2).
            let angles = zyz_decompose(&other.matrix());
            let (a, b, g, d) = (angles.alpha, angles.beta, angles.gamma, angles.delta);
            out.push(LoweredOp::G1(Gate::Rz((d - b) / 2.0), t));
            out.push(LoweredOp::Cx(c, t));
            out.push(LoweredOp::G1(Gate::Rz(-(d + b) / 2.0), t));
            out.push(LoweredOp::G1(Gate::Ry(-g / 2.0), t));
            out.push(LoweredOp::Cx(c, t));
            out.push(LoweredOp::G1(Gate::Ry(g / 2.0), t));
            out.push(LoweredOp::G1(Gate::Rz(b), t));
            out.push(LoweredOp::G1(Gate::Phase(a), c));
        }
    }
    Ok(())
}

/// The 6-CNOT Clifford+T Toffoli.
fn lower_ccx(c0: usize, c1: usize, t: usize, out: &mut Vec<LoweredOp>) {
    let g1 = |g, q| LoweredOp::G1(g, q);
    out.push(g1(Gate::H, t));
    out.push(LoweredOp::Cx(c1, t));
    out.push(g1(Gate::Tdg, t));
    out.push(LoweredOp::Cx(c0, t));
    out.push(g1(Gate::T, t));
    out.push(LoweredOp::Cx(c1, t));
    out.push(g1(Gate::Tdg, t));
    out.push(LoweredOp::Cx(c0, t));
    out.push(g1(Gate::T, c1));
    out.push(g1(Gate::T, t));
    out.push(g1(Gate::H, t));
    out.push(LoweredOp::Cx(c0, c1));
    out.push(g1(Gate::T, c0));
    out.push(g1(Gate::Tdg, c1));
    out.push(LoweredOp::Cx(c0, c1));
}

/// Per-qubit construction state: the wire's current attachment point and
/// whether a Hadamard is pending on the next connection.
struct Wire {
    vertex: usize,
    pending_h: bool,
}

impl Diagram {
    /// Translates a unitary circuit into a scalar-exact ZX-diagram.
    ///
    /// # Errors
    ///
    /// Returns [`ZxError::Unsupported`] for measurement, reset, and gates
    /// with three or more controls (compile those away first).
    pub fn from_circuit(circuit: &Circuit) -> Result<Diagram, ZxError> {
        let ops = lower(circuit)?;
        let n = circuit.num_qubits();
        let mut d = Diagram::new();
        let mut wires: Vec<Wire> = (0..n)
            .map(|_| {
                let b = d.add_vertex(VertexKind::Boundary, Phase::ZERO);
                Wire {
                    vertex: b,
                    pending_h: false,
                }
            })
            .collect();
        d.set_inputs(wires.iter().map(|w| w.vertex).collect());

        // Attach a new spider to wire `q`, honouring pending Hadamards.
        fn attach(
            d: &mut Diagram,
            wires: &mut [Wire],
            q: usize,
            kind: VertexKind,
            phase: Phase,
        ) -> usize {
            let v = d.add_vertex(kind, phase);
            let et = if wires[q].pending_h {
                EdgeType::Hadamard
            } else {
                EdgeType::Simple
            };
            d.add_edge(wires[q].vertex, v, et);
            wires[q].vertex = v;
            wires[q].pending_h = false;
            v
        }

        for op in ops {
            match op {
                LoweredOp::Swap(a, b) => {
                    // Only connectivity matters: cross the wires.
                    wires.swap(a, b);
                }
                LoweredOp::Cx(c, t) => {
                    let zc = attach(&mut d, &mut wires, c, VertexKind::Z, Phase::ZERO);
                    let xt = attach(&mut d, &mut wires, t, VertexKind::X, Phase::ZERO);
                    d.add_edge(zc, xt, EdgeType::Simple);
                    d.scalar_mut().mul_sqrt2_power(1);
                }
                LoweredOp::Cz(c, t) => {
                    let zc = attach(&mut d, &mut wires, c, VertexKind::Z, Phase::ZERO);
                    let zt = attach(&mut d, &mut wires, t, VertexKind::Z, Phase::ZERO);
                    d.add_edge(zc, zt, EdgeType::Hadamard);
                    d.scalar_mut().mul_sqrt2_power(1);
                }
                LoweredOp::G1(gate, q) => match gate {
                    Gate::I => {}
                    Gate::H => wires[q].pending_h = !wires[q].pending_h,
                    Gate::Z => {
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::PI);
                    }
                    Gate::S => {
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::rational(1, 2));
                    }
                    Gate::Sdg => {
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::rational(3, 2));
                    }
                    Gate::T => {
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::rational(1, 4));
                    }
                    Gate::Tdg => {
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::rational(7, 4));
                    }
                    Gate::Phase(t) => {
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::from_radians(t));
                    }
                    Gate::Rz(t) => {
                        // Rz(θ) = e^{−iθ/2}·P(θ).
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::from_radians(t));
                        d.scalar_mut().mul_phase(Phase::from_radians(-t / 2.0));
                    }
                    Gate::X => {
                        attach(&mut d, &mut wires, q, VertexKind::X, Phase::PI);
                    }
                    Gate::Sx => {
                        // √X = X-phase(π/2) exactly.
                        attach(&mut d, &mut wires, q, VertexKind::X, Phase::rational(1, 2));
                    }
                    Gate::Sxdg => {
                        attach(&mut d, &mut wires, q, VertexKind::X, Phase::rational(3, 2));
                    }
                    Gate::Rx(t) => {
                        // Rx(θ) = e^{−iθ/2}·XP(θ).
                        attach(&mut d, &mut wires, q, VertexKind::X, Phase::from_radians(t));
                        d.scalar_mut().mul_phase(Phase::from_radians(-t / 2.0));
                    }
                    Gate::Y => {
                        // Y = i·X·Z.
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::PI);
                        attach(&mut d, &mut wires, q, VertexKind::X, Phase::PI);
                        d.scalar_mut().mul_phase(Phase::rational(1, 2));
                    }
                    Gate::Ry(t) => {
                        // Ry(θ) = e^{−iθ/2} · P(π/2) · XP(θ) · P(−π/2).
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::rational(3, 2));
                        attach(&mut d, &mut wires, q, VertexKind::X, Phase::from_radians(t));
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::rational(1, 2));
                        d.scalar_mut().mul_phase(Phase::from_radians(-t / 2.0));
                    }
                    Gate::U(theta, phi, lambda) => {
                        // U(θ,φ,λ) = P(φ) · Ry(θ) · P(λ).
                        attach(
                            &mut d,
                            &mut wires,
                            q,
                            VertexKind::Z,
                            Phase::from_radians(lambda),
                        );
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::rational(3, 2));
                        attach(
                            &mut d,
                            &mut wires,
                            q,
                            VertexKind::X,
                            Phase::from_radians(theta),
                        );
                        attach(&mut d, &mut wires, q, VertexKind::Z, Phase::rational(1, 2));
                        d.scalar_mut().mul_phase(Phase::from_radians(-theta / 2.0));
                        attach(
                            &mut d,
                            &mut wires,
                            q,
                            VertexKind::Z,
                            Phase::from_radians(phi),
                        );
                    }
                },
            }
        }

        // Close the wires with output boundaries.
        let mut outputs = Vec::with_capacity(n);
        for w in &wires {
            let b = d.add_vertex(VertexKind::Boundary, Phase::ZERO);
            let et = if w.pending_h {
                EdgeType::Hadamard
            } else {
                EdgeType::Simple
            };
            d.add_edge(w.vertex, b, et);
            outputs.push(b);
        }
        d.set_outputs(outputs);
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_array::circuit_unitary;
    use qdt_circuit::generators;

    /// The gold standard: diagram semantics must equal the circuit
    /// unitary exactly (including scalars).
    fn assert_exact(qc: &Circuit) {
        let d = Diagram::from_circuit(qc).unwrap();
        let m = d.to_matrix();
        let u = circuit_unitary(qc).unwrap();
        assert!(
            m.approx_eq(&u, 1e-9),
            "ZX translation diverges for:\n{qc}\ngot {m:?}\nexpected {u:?}"
        );
    }

    #[test]
    fn single_qubit_gates_exact() {
        for g in [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Sxdg,
        ] {
            let mut qc = Circuit::new(1);
            qc.gate(g, 0, &[]);
            assert_exact(&qc);
        }
    }

    #[test]
    fn rotations_exact() {
        for t in [0.0, 0.37, -1.2, std::f64::consts::PI, 2.6] {
            for g in [Gate::Rx(t), Gate::Ry(t), Gate::Rz(t), Gate::Phase(t)] {
                let mut qc = Circuit::new(1);
                qc.gate(g, 0, &[]);
                assert_exact(&qc);
            }
        }
    }

    #[test]
    fn u_gate_exact() {
        let mut qc = Circuit::new(1);
        qc.u(0.7, -0.4, 1.9, 0);
        assert_exact(&qc);
    }

    #[test]
    fn bell_and_ghz_exact() {
        assert_exact(&generators::bell());
        assert_exact(&generators::ghz(3));
    }

    #[test]
    fn cx_both_directions_exact() {
        let mut a = Circuit::new(2);
        a.cx(0, 1);
        assert_exact(&a);
        let mut b = Circuit::new(2);
        b.cx(1, 0);
        assert_exact(&b);
    }

    #[test]
    fn cz_and_cp_exact() {
        let mut a = Circuit::new(2);
        a.cz(0, 1);
        assert_exact(&a);
        let mut b = Circuit::new(2);
        b.cp(0.9, 1, 0);
        assert_exact(&b);
    }

    #[test]
    fn controlled_rotations_exact() {
        for t in [0.6, -1.3] {
            let mut qc = Circuit::new(2);
            qc.crz(t, 0, 1);
            assert_exact(&qc);
            let mut qc = Circuit::new(2);
            qc.cry(t, 0, 1);
            assert_exact(&qc);
        }
    }

    #[test]
    fn controlled_h_y_sx_exact() {
        let mut qc = Circuit::new(2);
        qc.ch(0, 1);
        assert_exact(&qc);
        let mut qc = Circuit::new(2);
        qc.cy(1, 0);
        assert_exact(&qc);
        let mut qc = Circuit::new(2);
        qc.gate(Gate::Sx, 1, &[0]);
        assert_exact(&qc);
    }

    #[test]
    fn toffoli_exact() {
        let mut qc = Circuit::new(3);
        qc.ccx(0, 1, 2);
        assert_exact(&qc);
        let mut qc = Circuit::new(3);
        qc.ccz(2, 0, 1);
        assert_exact(&qc);
    }

    #[test]
    fn swap_and_fredkin_exact() {
        let mut qc = Circuit::new(2);
        qc.x(0).swap(0, 1);
        assert_exact(&qc);
        let mut qc = Circuit::new(3);
        qc.cswap(0, 1, 2);
        assert_exact(&qc);
    }

    #[test]
    fn hadamards_merge_on_wire() {
        let mut qc = Circuit::new(1);
        qc.h(0).h(0);
        let d = Diagram::from_circuit(&qc).unwrap();
        // Two H's cancel into a bare wire: no spiders at all.
        assert_eq!(d.num_spiders(), 0);
        assert_exact(&qc);
    }

    #[test]
    fn qft_exact() {
        assert_exact(&generators::qft(3, true));
    }

    #[test]
    fn random_clifford_t_exact() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..5 {
            let qc = generators::random_clifford_t(3, 4, 0.3, &mut rng);
            assert_exact(&qc);
        }
    }

    #[test]
    fn measurement_rejected_naming_the_dynamic_path() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.measure(0, 0);
        match Diagram::from_circuit(&qc).unwrap_err() {
            ZxError::Unsupported { op } => {
                assert!(op.starts_with("measure"), "{op}");
                assert!(op.contains("Capabilities::dynamic"), "{op}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Conditioned gates get the same pointer.
        let mut qc = Circuit::with_clbits(1, 1);
        qc.x(0).c_if(0, true);
        match Diagram::from_circuit(&qc).unwrap_err() {
            ZxError::Unsupported { op } => {
                assert!(op.contains("conditioned x"), "{op}");
                assert!(op.contains("Capabilities::dynamic"), "{op}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn three_controls_rejected() {
        let mut qc = Circuit::new(4);
        qc.mcx(&[0, 1, 2], 3);
        assert!(matches!(
            Diagram::from_circuit(&qc),
            Err(ZxError::Unsupported { .. })
        ));
    }

    use qdt_circuit::Circuit;
}
