//! Qubit routing: making every two-qubit gate respect the coupling map
//! by inserting SWAPs.
//!
//! The router walks the circuit keeping a logical→physical mapping; when
//! a gate's operands are not adjacent it moves one along a shortest path
//! (choosing, among the front gate's two operands, the move that helps
//! upcoming gates most — a light-weight lookahead in the spirit of
//! SABRE, the paper's reference \[18\]).

use qdt_circuit::Circuit;

use crate::coupling::CouplingMap;
use crate::CompileError;

/// The result of routing: a physical circuit plus the layouts needed to
/// interpret it.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// The physical circuit (acts on `map.num_qubits()` qubits).
    pub circuit: Circuit,
    /// `initial_layout[logical] = physical` at circuit start. Indices
    /// `>= `the source circuit's width track unused device qubits so the
    /// permutation is total.
    pub initial_layout: Vec<usize>,
    /// `final_layout[logical] = physical` after all inserted SWAPs
    /// (total, like `initial_layout`).
    pub final_layout: Vec<usize>,
    /// Number of SWAPs inserted — the routing overhead metric.
    pub swap_count: usize,
}

impl RoutedCircuit {
    /// The physical circuit with SWAPs appended that undo the routing, so
    /// it implements exactly `original.remap(initial_layout)`. The SWAPs
    /// come from [`push_permutation`] and ignore the coupling map.
    pub fn with_unrouting_swaps(&self) -> Circuit {
        // The content of final_layout[l] moves back to initial_layout[l].
        let mut perm = vec![0; self.final_layout.len()];
        for (&end, &start) in self.final_layout.iter().zip(&self.initial_layout) {
            perm[end] = start;
        }
        let mut qc = self.circuit.clone();
        push_permutation(&mut qc, &perm);
        qc
    }
}

/// Appends SWAPs to `qc` that move the content of each qubit `q` to
/// qubit `perm[q]`, and returns how many it appended: one per element a
/// cycle of `perm` moves, less one per cycle, so at most `n − 1`. The
/// SWAPs ignore any coupling map.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..perm.len()` or is wider
/// than `qc`.
pub fn push_permutation(qc: &mut Circuit, perm: &[usize]) -> usize {
    let before = qc.len();
    let mut rest = perm.to_vec();
    for q in 0..rest.len() {
        // Swapping q with its destination settles the content of q; the
        // content that was there now sits on q and still has to move.
        while rest[q] != q {
            let to = rest[q];
            qc.swap(q, to);
            rest.swap(q, to);
        }
    }
    qc.len() - before
}

/// Routes a circuit onto a coupling map with a trivial initial layout
/// (`logical i → physical i`).
///
/// # Errors
///
/// * [`CompileError::TooManyQubits`] if the device is too small;
/// * [`CompileError::DisconnectedDevice`] if the map is disconnected;
/// * [`CompileError::GateTooWide`] for gates on three or more qubits
///   (decompose first).
pub fn route(circuit: &Circuit, map: &CouplingMap) -> Result<RoutedCircuit, CompileError> {
    route_with_layout(circuit, map, None)
}

/// Like [`route`] but with an explicit initial layout
/// (`layout[logical] = physical`), e.g. one produced by
/// [`interaction_layout`](crate::layout::interaction_layout). A layout
/// shorter than the device is extended with the unused physical qubits.
///
/// # Errors
///
/// As for [`route`]; additionally [`CompileError::InvalidLayout`] for
/// a layout that is not injective or names a site outside the device.
pub fn route_with_layout(
    circuit: &Circuit,
    map: &CouplingMap,
    initial: Option<Vec<usize>>,
) -> Result<RoutedCircuit, CompileError> {
    if circuit.num_qubits() > map.num_qubits() {
        return Err(CompileError::TooManyQubits {
            circuit: circuit.num_qubits(),
            device: map.num_qubits(),
        });
    }
    if !map.is_connected() {
        return Err(CompileError::DisconnectedDevice);
    }
    let n_phys = map.num_qubits();
    // layout[logical] = physical; extend a partial layout with the
    // unused sites so the permutation is total.
    let mut layout = initial.unwrap_or_default();
    let mut used = vec![false; n_phys];
    for (logical, &site) in layout.iter().enumerate() {
        if site >= n_phys || used[site] {
            return Err(CompileError::InvalidLayout {
                logical,
                site,
                device: n_phys,
            });
        }
        used[site] = true;
    }
    layout.extend((0..n_phys).filter(|&p| !used[p]));
    let initial_layout: Vec<usize> = layout.clone();
    let mut out = Circuit::with_clbits(n_phys, circuit.num_clbits());
    let mut swap_count = 0usize;

    // Upcoming 2-qubit interactions, for the lookahead tie-break.
    let future: Vec<(usize, usize)> = circuit
        .instructions()
        .iter()
        .filter_map(crate::two_qubit_operands)
        .collect();
    let mut future_idx = 0usize;

    for inst in circuit {
        if inst.is_unitary() && inst.qubits().len() > 2 {
            return Err(CompileError::GateTooWide { op: inst.name() });
        }
        if let Some((a, b)) = crate::two_qubit_operands(inst) {
            // Bring the operands together along a shortest path.
            while !map.connected(layout[a], layout[b]) {
                let path = map
                    .shortest_path(layout[a], layout[b])
                    .expect("connected map");
                // Two candidate moves: advance a towards b, or b towards
                // a. Pick by remaining-future cost.
                let move_a = path[1];
                let move_b = path[path.len() - 2];
                let cost = |layout: &[usize]| -> usize {
                    future[future_idx..]
                        .iter()
                        .take(8)
                        .map(|&(x, y)| map.distance(layout[x], layout[y]))
                        .sum()
                };
                let try_swap = |layout: &[usize], phys_from: usize, phys_to: usize| {
                    let swapped = |v| match v {
                        v if v == phys_from => phys_to,
                        v if v == phys_to => phys_from,
                        v => v,
                    };
                    layout.iter().map(|&v| swapped(v)).collect::<Vec<_>>()
                };
                let la = try_swap(&layout, layout[a], move_a);
                let lb = try_swap(&layout, layout[b], move_b);
                let (chosen_from, chosen_to, chosen_layout) = if cost(&la) <= cost(&lb) {
                    (layout[a], move_a, la)
                } else {
                    (layout[b], move_b, lb)
                };
                out.swap(chosen_from, chosen_to);
                swap_count += 1;
                layout = chosen_layout;
            }
            future_idx += 1;
        }
        // Emit the instruction on physical qubits.
        out.push(inst.remapped(|q| layout[q]))
            .expect("physical indices in range");
    }

    Ok(RoutedCircuit {
        circuit: out,
        initial_layout,
        final_layout: layout,
        swap_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::generators;
    use qdt_dd::{check_equivalence, DdPackage, EquivalenceResult};

    /// Routing followed by un-routing must reproduce the original
    /// circuit (padded to the device width).
    fn assert_routing_correct(qc: &Circuit, map: &CouplingMap) {
        let routed = route(qc, map).unwrap();
        // Every 2q gate respects the map.
        for inst in &routed.circuit {
            if let Some((a, b)) = crate::two_qubit_operands(inst) {
                assert!(
                    map.connected(a, b),
                    "gate {} on non-adjacent ({a}, {b})",
                    inst.name()
                );
            }
        }
        let undone = routed.with_unrouting_swaps();
        let reference = qc.remap(&routed.initial_layout, map.num_qubits());
        let mut dd = DdPackage::new();
        let r = check_equivalence(&mut dd, &undone, &reference).unwrap();
        assert!(
            matches!(r, EquivalenceResult::Equivalent),
            "routing broke semantics: {r:?}"
        );
    }

    #[test]
    fn push_permutation_moves_each_qubit_to_its_destination() {
        // One SWAP per moved qubit, less one per cycle.
        for (perm, expected) in [
            (vec![1, 2, 0], 2),
            (vec![2, 0, 1], 2),
            (vec![3, 2, 1, 0], 2),
            (vec![0, 1, 2], 0),
            (vec![1, 0, 3, 4, 2], 3),
        ] {
            let mut qc = Circuit::new(perm.len());
            assert_eq!(push_permutation(&mut qc, &perm), expected, "{perm:?}");
            assert_eq!(qc.len(), expected);
            // Follow the content of every qubit through the SWAPs.
            let mut content: Vec<usize> = (0..perm.len()).collect();
            for inst in &qc {
                let mut qs = inst.qubits();
                content.swap(qs.next().unwrap(), qs.next().unwrap());
            }
            for (q, &to) in perm.iter().enumerate() {
                assert_eq!(content[to], q, "{perm:?}");
            }
        }
    }

    #[test]
    fn already_adjacent_needs_no_swaps() {
        let mut qc = Circuit::new(3);
        qc.cx(0, 1).cx(1, 2);
        let routed = route(&qc, &CouplingMap::linear(3)).unwrap();
        assert_eq!(routed.swap_count, 0);
    }

    #[test]
    fn distant_gate_inserts_swaps() {
        let mut qc = Circuit::new(4);
        qc.cx(0, 3);
        let routed = route(&qc, &CouplingMap::linear(4)).unwrap();
        assert!(routed.swap_count >= 2);
        assert_routing_correct(&qc, &CouplingMap::linear(4));
    }

    #[test]
    fn ghz_on_line_and_ring() {
        let qc = generators::ghz(5);
        assert_routing_correct(&qc, &CouplingMap::linear(5));
        assert_routing_correct(&qc, &CouplingMap::ring(5));
    }

    #[test]
    fn qft_on_linear_map() {
        let qc = generators::qft(4, true);
        assert_routing_correct(&qc, &CouplingMap::linear(4));
    }

    #[test]
    fn random_circuits_on_grid_and_heavy_hex() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..3 {
            let qc = generators::random_circuit(6, 4, &mut rng);
            assert_routing_correct(&qc, &CouplingMap::grid(2, 3));
            assert_routing_correct(&qc, &CouplingMap::heavy_hex(2, 3));
        }
    }

    #[test]
    fn full_connectivity_never_swaps() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(92);
        let qc = generators::random_circuit(5, 6, &mut rng);
        let routed = route(&qc, &CouplingMap::full(5)).unwrap();
        assert_eq!(routed.swap_count, 0);
    }

    #[test]
    fn device_too_small_rejected() {
        let qc = generators::ghz(5);
        assert!(matches!(
            route(&qc, &CouplingMap::linear(3)),
            Err(CompileError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn wide_gate_rejected() {
        let mut qc = Circuit::new(3);
        qc.ccx(0, 1, 2);
        assert!(matches!(
            route(&qc, &CouplingMap::linear(3)),
            Err(CompileError::GateTooWide { .. })
        ));
    }

    #[test]
    fn disconnected_map_rejected() {
        let qc = generators::bell();
        let map = CouplingMap::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(matches!(
            route(&qc, &map),
            Err(CompileError::DisconnectedDevice)
        ));
    }

    #[test]
    fn measurements_are_remapped() {
        let mut qc = Circuit::with_clbits(4, 4);
        qc.cx(0, 3).measure(3, 3);
        let routed = route(&qc, &CouplingMap::linear(4)).unwrap();
        assert_eq!(routed.circuit.count_by_name()["measure"], 1);
    }

    #[test]
    fn out_of_range_layout_site_is_rejected() {
        let mut qc = Circuit::new(2);
        qc.cx(0, 1);
        let err = route_with_layout(&qc, &CouplingMap::linear(3), Some(vec![0, 3])).unwrap_err();
        assert_eq!(
            err,
            CompileError::InvalidLayout {
                logical: 1,
                site: 3,
                device: 3
            }
        );
        assert!(
            err.to_string().contains("outside the 3-qubit device"),
            "{err}"
        );
    }

    #[test]
    fn duplicated_layout_site_is_rejected() {
        let mut qc = Circuit::new(3);
        qc.cx(0, 2);
        let err = route_with_layout(&qc, &CouplingMap::linear(4), Some(vec![2, 1, 2])).unwrap_err();
        assert_eq!(
            err,
            CompileError::InvalidLayout {
                logical: 2,
                site: 2,
                device: 4
            }
        );
        assert!(err.to_string().contains("already takes"), "{err}");
    }

    use qdt_circuit::Circuit;
}
