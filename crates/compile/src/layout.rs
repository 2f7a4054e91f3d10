//! Initial qubit placement.
//!
//! Routing cost depends heavily on where logical qubits start; placing
//! frequently-interacting logical qubits on adjacent physical qubits
//! (the idea behind the placement stages of the paper's refs \[15\], \[18\])
//! saves SWAPs before routing even begins.

use std::collections::HashMap;

use qdt_circuit::Circuit;

use crate::coupling::CouplingMap;
use crate::CompileError;

/// Computes an interaction-aware initial layout: logical qubits that
/// interact often are placed close together on the device.
///
/// Returns `layout[logical] = physical`, a total permutation over the
/// device (unused device qubits fill the remaining slots).
///
/// The heuristic is greedy: the most-interacting logical qubit seeds the
/// highest-degree physical site; every further logical qubit goes to the
/// free site minimising the interaction-weighted distance to its already
/// placed partners.
///
/// # Errors
///
/// Returns [`CompileError::TooManyQubits`] if the device is too small
/// and [`CompileError::DisconnectedDevice`] if it is disconnected.
pub fn interaction_layout(
    circuit: &Circuit,
    map: &CouplingMap,
) -> Result<Vec<usize>, CompileError> {
    let n_log = circuit.num_qubits();
    let n_phys = map.num_qubits();
    if n_log > n_phys {
        return Err(CompileError::TooManyQubits {
            circuit: n_log,
            device: n_phys,
        });
    }
    if !map.is_connected() {
        return Err(CompileError::DisconnectedDevice);
    }

    // Interaction weights between logical pairs.
    let mut weight: HashMap<(usize, usize), usize> = HashMap::new();
    let mut total: Vec<usize> = vec![0; n_log];
    for (a, b) in circuit.iter().filter_map(crate::two_qubit_operands) {
        *weight.entry((a.min(b), a.max(b))).or_insert(0) += 1;
        total[a] += 1;
        total[b] += 1;
    }

    let w =
        |a: usize, b: usize| -> usize { weight.get(&(a.min(b), a.max(b))).copied().unwrap_or(0) };

    let mut layout: Vec<Option<usize>> = vec![None; n_log];
    let mut phys_used = vec![false; n_phys];

    // Seed: busiest logical qubit on the highest-degree physical site.
    let seed_log = (0..n_log).max_by_key(|&q| total[q]).unwrap_or(0);
    let seed_phys = (0..n_phys)
        .max_by_key(|&p| map.neighbors(p).len())
        .unwrap_or(0);
    if n_log > 0 {
        layout[seed_log] = Some(seed_phys);
        phys_used[seed_phys] = true;
    }

    for _ in 1..n_log {
        // Next: the unplaced logical with the strongest ties to the
        // placed set (fallback: busiest remaining).
        let next = (0..n_log)
            .filter(|&q| layout[q].is_none())
            .max_by_key(|&q| {
                let tie: usize = (0..n_log)
                    .filter(|&r| layout[r].is_some())
                    .map(|r| w(q, r))
                    .sum();
                (tie, total[q])
            })
            .expect("an unplaced qubit exists");
        // Best free site: minimal weighted distance to placed partners.
        let best = (0..n_phys)
            .filter(|&p| !phys_used[p])
            .min_by_key(|&p| {
                let mut cost = 0usize;
                for (r, slot) in layout.iter().enumerate() {
                    if let Some(pr) = *slot {
                        let d = map.distance(p, pr);
                        cost += w(next, r).saturating_mul(d);
                    }
                }
                // Tie-break toward central (high-degree) sites.
                (cost, usize::MAX - map.neighbors(p).len())
            })
            .expect("a free site exists");
        layout[next] = Some(best);
        phys_used[best] = true;
    }

    // Extend to a total permutation with the unused sites.
    let mut out: Vec<usize> = layout.into_iter().map(|p| p.expect("placed")).collect();
    out.extend((0..n_phys).filter(|&p| !phys_used[p]));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::route_with_layout;
    use qdt_circuit::generators;

    #[test]
    fn layout_is_a_permutation() {
        let qc = generators::qft(5, false);
        let map = CouplingMap::grid(2, 3);
        let layout = interaction_layout(&qc, &map).unwrap();
        assert_eq!(layout.len(), 6);
        let mut sorted = layout.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn interacting_pairs_are_placed_adjacent() {
        // Only qubits 0 and 4 ever interact: they must end up adjacent.
        let mut qc = qdt_circuit::Circuit::new(5);
        for _ in 0..6 {
            qc.cx(0, 4);
        }
        let map = CouplingMap::linear(5);
        let layout = interaction_layout(&qc, &map).unwrap();
        assert_eq!(map.distance(layout[0], layout[4]), 1, "layout {layout:?}");
    }

    #[test]
    fn smart_layout_reduces_swaps() {
        // A circuit whose interaction graph is a star around qubit 5 —
        // terrible for the trivial layout on a line.
        let mut qc = qdt_circuit::Circuit::new(6);
        for _ in 0..4 {
            for q in 0..5 {
                qc.cx(5, q);
            }
        }
        let map = CouplingMap::grid(2, 3);
        let trivial = route_with_layout(&qc, &map, None).unwrap();
        let layout = interaction_layout(&qc, &map).unwrap();
        let smart = route_with_layout(&qc, &map, Some(layout)).unwrap();
        assert!(
            smart.swap_count <= trivial.swap_count,
            "smart {} > trivial {}",
            smart.swap_count,
            trivial.swap_count
        );
    }

    #[test]
    fn routed_with_layout_verifies() {
        use qdt_dd::{check_equivalence, DdPackage, EquivalenceResult};
        let qc = generators::qft(5, false);
        let map = CouplingMap::grid(2, 3);
        let layout = interaction_layout(&qc, &map).unwrap();
        let routed = route_with_layout(&qc, &map, Some(layout)).unwrap();
        let undone = routed.with_unrouting_swaps();
        let reference = qc.remap(&routed.initial_layout[..5], map.num_qubits());
        let mut dd = DdPackage::new();
        let r = check_equivalence(&mut dd, &undone, &reference).unwrap();
        assert!(matches!(r, EquivalenceResult::Equivalent), "{r:?}");
    }

    #[test]
    fn too_small_device_rejected() {
        let qc = generators::ghz(5);
        assert!(matches!(
            interaction_layout(&qc, &CouplingMap::linear(3)),
            Err(CompileError::TooManyQubits { .. })
        ));
    }
}
