//! The per-backend cost model behind the `auto` engine spec.
//!
//! The paper's thesis — arrays, decision diagrams, and tensor networks
//! each win on different circuit shapes — becomes actionable once the
//! shapes are measured. [`circuit_facts`] gathers the dataflow facts
//! (resources, Clifford regions, interaction cut-width, lightcone
//! liveness) and [`plan_dispatch`] turns them into one predicted cost
//! per backend:
//!
//! * `n` qubits, `g` gates (`g₂` multi-qubit), `m` non-Clifford gates,
//!   `w` the interaction cut-width proxy in the natural qubit order (the
//!   order the MPS and DD engines run in), `χ̂ = 2^min(w, n/2)` the
//!   predicted peak Schmidt rank;
//! * **array** — `g · 2^n`, infeasible past
//!   [`ARRAY_MAX_QUBITS`] (dense allocation);
//! * **array(fuse=5)** — `G · 2^n` with `G` the greedy gate-fusion
//!   group count at width [`FUSE_DISPATCH_WIDTH`] (the streaming
//!   fuser's rule, see [`fused_group_count`]): the dense kernels are
//!   memory-bound, so each fused group costs one pass over the
//!   state regardless of how many gates it absorbed. `G ≤ g`, so the
//!   fused array never prices above the plain one, and the tie-break
//!   order keeps the plain array when fusion merges nothing;
//! * **stabilizer** — `g · n²/64` (word-parallel tableau row updates);
//!   feasible only for Clifford-only circuits wider than
//!   [`QDT404_WIDTH_THRESHOLD`] (narrow Clifford circuits stay on the
//!   dense array, which is exact on every query) and at most
//!   [`STABILIZER_MAX_QUBITS`] qubits;
//! * **decision diagram** — `8 · g · n · 2^ℓ` with
//!   `ℓ = min(n, w + m/2)`: width-bounded entanglement plus
//!   non-Clifford density drive node growth. Pure-Clifford spans get
//!   the stabilizer-shaped discount automatically (`m = 0 ⇒ ℓ ≤ w`);
//! * **MPS** — `8·g₂·χ̂³ + 4·(g−g₂)·χ̂²` (per-gate contraction + SVD),
//!   dispatched as `mps:`[`MPS_DISPATCH_BOND_CAP`] and feasible only
//!   when `χ̂` fits that bond. `χ̂` prices the run but does not set the
//!   bond: the engine drops numerically zero singular values, so an
//!   accurate estimate costs nothing extra, and an underestimate costs
//!   time instead of fidelity (the `auto` engine refuses a run that
//!   still had to truncate);
//! * **tensor network** — `16 · g · 2^min(2w, n)`: single-amplitude
//!   contraction with intermediate tensors bounded by the cut.
//!
//! Decision diagrams, MPS and tensor networks are feasible up to
//! [`WIDE_ENGINE_MAX_QUBITS`], the `max_qubits` their engines advertise.
//! Past it only the stabilizer tableau is left, so a wider non-Clifford
//! circuit has no feasible backend at all.
//!
//! The units are arbitrary flop-shaped counts: only the *ordering*
//! matters, and ties break toward the earlier entry in
//! [`DispatchDecision::estimates`] (exact-and-simple first).

use qdt_circuit::{Circuit, OpKind, QubitMap};

use crate::passes::{
    clifford_regions, interaction_facts, lightcone_facts, CliffordRegion, InteractionFacts,
    LightconeFacts,
};
use crate::resources::{is_clifford_inst, resource_report, ResourceReport};

/// Widest register the dense array backend is considered feasible for.
pub const ARRAY_MAX_QUBITS: usize = 28;

/// Widest register the decision-diagram, MPS and tensor-network engines
/// accept (mirrors their `capabilities().max_qubits`: basis indices and
/// sample keys are `u128`).
pub const WIDE_ENGINE_MAX_QUBITS: usize = 128;

/// Bond-dimension cap of the dispatched MPS spec (`mps:64`); MPS is
/// feasible only when the predicted `χ̂` fits it.
pub const MPS_DISPATCH_BOND_CAP: usize = 64;

/// Widest register the stabilizer tableau is considered feasible for
/// (mirrors `qdt_stabilizer::MAX_QUBITS`; the tableau itself is
/// quadratic, so this is a guard against absurd inputs, not memory).
pub const STABILIZER_MAX_QUBITS: usize = 16_384;

/// Fusion width written into the dispatched `array(fuse=N)` spec
/// (mirrors `qdt_array::MAX_FUSE_WIDTH`; kept as a local constant so
/// the analysis crate stays free of backend dependencies).
pub const FUSE_DISPATCH_WIDTH: usize = 5;

/// Every dataflow fact the cost model (and the reporters) consume.
#[derive(Debug, Clone)]
pub struct CircuitFacts {
    /// The classic resource summary.
    pub resources: ResourceReport,
    /// Maximal Clifford-only spans.
    pub regions: Vec<CliffordRegion>,
    /// Interaction graph, components, and the cut-width proxy.
    pub interaction: InteractionFacts,
    /// Per-instruction measurement-lightcone liveness.
    pub lightcone: LightconeFacts,
    /// Unitary gates outside every measurement lightcone.
    pub dead_gates: usize,
    /// Non-Clifford unitary gate count.
    pub non_clifford_gates: usize,
    /// Greedy gate-fusion group count at [`FUSE_DISPATCH_WIDTH`]
    /// (see [`fused_group_count`]).
    pub fused_groups: usize,
}

/// Counts the passes a width-`width` streaming greedy fuser executes over
/// `circuit`: adjacent unconditioned gates merge while the qubits they
/// *mix* ([`Instruction::fusion_support`](qdt_circuit::Instruction::fusion_support))
/// stay within `width`; measurements, resets, barriers, and classically
/// conditioned gates are fusion boundaries, and a conditioned gate (or a
/// gate too wide to fuse at all) still costs one pass of its own.
/// Relabellings ([`Instruction::is_relabelling`](qdt_circuit::Instruction::is_relabelling):
/// uncontrolled `x` and `swap`) cost no pass: the array engine tracks
/// them in its frame, so they neither open nor close a group, and later
/// gates are grouped by the qubits the frame's [`QubitMap`] maps them
/// to.
///
/// This is the pass count of `qdt_array::plan_groups` — both apply the
/// same [`FusionSupport::merge_into`](qdt_circuit::FusionSupport::merge_into)
/// rule through the same [`QubitMap`] — computed without depending on
/// the backend crate. It is total for any register width.
#[must_use]
pub fn fused_group_count(circuit: &Circuit, width: usize) -> usize {
    let mut groups = 0usize;
    // The open group's mixed qubits (one buffer, reused by every group),
    // and whether a group is open at all.
    let mut mixed = Vec::new();
    let mut open = false;
    let mut map = QubitMap::default();
    for inst in circuit.iter() {
        if map.relabel(inst) {
            continue;
        }
        if let Some(support) = inst.fusion_support().filter(|_| width > 0) {
            let support = support.map(|q| map.get(q));
            if open && support.merge_into(&mut mixed, width) {
                continue;
            }
            mixed.clear();
            open = support.merge_into(&mut mixed, width);
            groups += 1;
        } else {
            // Boundary: the open group flushes; a unitary that cannot
            // fuse still executes as a pass of its own.
            open = false;
            if matches!(inst.kind, OpKind::Unitary { .. } | OpKind::Swap { .. }) {
                groups += 1;
            }
        }
    }
    groups
}

/// Gathers all dataflow facts of `circuit` in one pass bundle.
#[must_use]
pub fn circuit_facts(circuit: &Circuit) -> CircuitFacts {
    let lightcone = lightcone_facts(circuit);
    let dead_gates = lightcone.dead_gates(circuit);
    CircuitFacts {
        // Non-unitary instructions pass `is_clifford_inst`; a conditioned
        // Clifford gate counts as Clifford though it breaks a region.
        non_clifford_gates: circuit.iter().filter(|i| !is_clifford_inst(i)).count(),
        resources: resource_report(circuit),
        regions: clifford_regions(circuit),
        interaction: interaction_facts(circuit),
        lightcone,
        dead_gates,
        fused_groups: fused_group_count(circuit, FUSE_DISPATCH_WIDTH),
    }
}

/// One backend's predicted cost.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendCost {
    /// The engine spec this estimate prices (e.g. `"mps:64"`).
    pub spec: String,
    /// Predicted cost in arbitrary flop-shaped units.
    pub cost: f64,
    /// `false` when the backend cannot run the circuit at all (e.g.
    /// dense arrays past [`ARRAY_MAX_QUBITS`]).
    pub feasible: bool,
}

/// The cost model's verdict: the cheapest feasible backend plus every
/// estimate that went into the decision.
///
/// When no backend is feasible, `chosen` names the cheapest estimate
/// anyway and [`DispatchDecision::chosen_estimate`] reports it
/// infeasible.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchDecision {
    /// Spec of the predicted-cheapest feasible backend.
    pub chosen: String,
    /// All estimates, in tie-break order.
    pub estimates: Vec<BackendCost>,
}

impl DispatchDecision {
    /// The estimate backing the chosen spec.
    #[must_use]
    pub fn chosen_estimate(&self) -> &BackendCost {
        self.estimates
            .iter()
            .find(|e| e.spec == self.chosen)
            .expect("chosen spec is always one of the estimates")
    }
}

fn exp2_capped(exponent: f64) -> f64 {
    exponent.min(120.0).exp2()
}

/// Prices every backend for the circuit described by `facts` and picks
/// the cheapest feasible one.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn plan_dispatch(facts: &CircuitFacts) -> DispatchDecision {
    let n = facts.resources.num_qubits.max(1);
    let g = facts.resources.gate_counts.values().sum::<usize>().max(1) as f64;
    let g2 = facts.resources.two_qubit_gate_count as f64;
    let g1 = (g - g2).max(0.0);
    let m = facts.non_clifford_gates as f64;
    let w = facts.interaction.cut_width as f64;
    let nf = n as f64;

    let log_chi = w.min(nf / 2.0);
    let chi_hat = exp2_capped(log_chi);
    let cost_array = g * exp2_capped(nf);
    // One strided pass per fused group: the dense kernels are
    // memory-bound, so absorbing a run of gates into one group saves
    // the repeated sweeps, not the arithmetic.
    let cost_array_fused = (facts.fused_groups.max(1) as f64) * exp2_capped(nf);
    let l_dd = nf.min(w + m / 2.0);
    let cost_dd = 8.0 * g * nf * exp2_capped(l_dd);
    let cost_mps = 8.0 * g2 * chi_hat.powi(3) + 4.0 * g1 * chi_hat.powi(2);
    let cost_tn = 16.0 * g * exp2_capped((2.0 * w).min(nf));

    // Word-parallel row updates touch 2n rows of n/64 words per gate;
    // the model only needs the quadratic shape, not the constant.
    let cost_stab = (g * nf * nf / 64.0).max(1.0);
    let stab_feasible =
        facts.resources.clifford_only && n > QDT404_WIDTH_THRESHOLD && n <= STABILIZER_MAX_QUBITS;

    let wide_feasible = n <= WIDE_ENGINE_MAX_QUBITS;
    let estimates = vec![
        BackendCost {
            spec: "array".into(),
            cost: cost_array,
            feasible: n <= ARRAY_MAX_QUBITS,
        },
        BackendCost {
            spec: format!("array(fuse={FUSE_DISPATCH_WIDTH})"),
            cost: cost_array_fused,
            feasible: n <= ARRAY_MAX_QUBITS,
        },
        BackendCost {
            spec: "stabilizer".into(),
            cost: cost_stab,
            feasible: stab_feasible,
        },
        BackendCost {
            spec: "decision-diagram".into(),
            cost: cost_dd,
            feasible: wide_feasible,
        },
        BackendCost {
            spec: format!("mps:{MPS_DISPATCH_BOND_CAP}"),
            cost: cost_mps,
            feasible: wide_feasible && chi_hat <= MPS_DISPATCH_BOND_CAP as f64,
        },
        BackendCost {
            spec: "tensor-network".into(),
            cost: cost_tn,
            feasible: wide_feasible,
        },
    ];
    // Feasible first, then cheapest; `min_by` keeps the earliest of ties.
    let chosen = estimates
        .iter()
        .min_by(|a, b| {
            b.feasible
                .cmp(&a.feasible)
                .then(a.cost.partial_cmp(&b.cost).expect("finite costs"))
        })
        .expect("six estimates")
        .spec
        .clone();
    DispatchDecision { chosen, estimates }
}

/// Convenience: facts + decision for one circuit.
#[must_use]
pub fn dispatch_circuit(circuit: &Circuit) -> DispatchDecision {
    plan_dispatch(&circuit_facts(circuit))
}

/// Width above which a Clifford-only circuit on an exponential backend
/// is reported (`QDT404`): below this, dense simulation is trivially
/// cheap anyway.
pub const QDT404_WIDTH_THRESHOLD: usize = 16;

/// Whether a circuit is worth a stabilizer warning: used by the
/// backend-fit pass (`QDT404`).
pub(crate) fn clifford_only_and_wide(facts: &CircuitFacts) -> bool {
    let has_gates = facts.resources.gate_counts.values().sum::<usize>() > 0;
    has_gates
        && facts.resources.clifford_only
        && facts.resources.num_qubits > QDT404_WIDTH_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::generators;

    #[test]
    fn wide_ghz_avoids_the_dense_array() {
        let decision = dispatch_circuit(&generators::ghz(40));
        let array = &decision.estimates[0];
        assert_eq!(array.spec, "array");
        assert!(!array.feasible);
        assert_ne!(decision.chosen, "array");
    }

    #[test]
    fn narrow_t_dense_circuit_picks_the_array() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let qc = generators::random_clifford_t(12, 12, 0.35, &mut rng);
        let decision = dispatch_circuit(&qc);
        // Fusion merges adjacent gates, so the fused array undercuts
        // the plain one on any circuit with a fusable run.
        assert_eq!(decision.chosen, "array(fuse=5)", "{:?}", decision.estimates);
    }

    #[test]
    fn fused_array_never_prices_above_the_plain_array() {
        for qc in [
            generators::bell(),
            generators::qft(10, true),
            generators::ghz(12),
            generators::w_state(8),
        ] {
            let decision = dispatch_circuit(&qc);
            let cost_of = |spec: &str| {
                decision
                    .estimates
                    .iter()
                    .find(|e| e.spec == spec)
                    .expect("estimate present")
                    .cost
            };
            assert!(
                cost_of("array(fuse=5)") <= cost_of("array"),
                "{:?}",
                decision.estimates
            );
        }
    }

    #[test]
    fn fused_group_count_respects_boundaries_and_width() {
        // Bell fuses into one 2-qubit group.
        assert_eq!(fused_group_count(&generators::bell(), 5), 1);
        // fuse=0 disables merging: one pass per gate.
        assert_eq!(fused_group_count(&generators::bell(), 0), 2);
        // A measurement splits the stream and a conditioned gate costs
        // its own pass.
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).cx(0, 1).measure(0, 0).x(1).c_if(0, true).h(1);
        assert_eq!(fused_group_count(&qc, 5), 3);
        // Six disjoint CX gates mix one qubit each (controls are free),
        // so width 5 holds five of them and the sixth opens a new group.
        let mut wide = Circuit::new(12);
        for i in 0..6 {
            wide.cx(2 * i, 2 * i + 1);
        }
        assert_eq!(fused_group_count(&wide, 5), 2);
    }

    #[test]
    fn dispatch_is_total_past_64_qubits() {
        // Debug builds check shift overflow: no qubit index, however
        // high, may turn into a `1 << q` mask on the dispatch path.
        let qc = generators::random_clifford_seeded(200, 8, 7);
        let decision = dispatch_circuit(&qc);
        assert_eq!(decision.chosen, "stabilizer", "{:?}", decision.estimates);
        assert!(fused_group_count(&qc, FUSE_DISPATCH_WIDTH) > 0);
    }

    #[test]
    fn dispatch_respects_engine_width_limits() {
        // Past 128 qubits DD, MPS and TN cannot take the register: the
        // wide GHZ goes to the tableau, not to `mps:64`.
        let decision = dispatch_circuit(&generators::ghz(200));
        assert_eq!(decision.chosen, "stabilizer", "{:?}", decision.estimates);
        for e in &decision.estimates {
            assert_eq!(e.feasible, e.spec == "stabilizer", "{e:?}");
        }
        // At 128 they are still feasible.
        let decision = dispatch_circuit(&generators::ghz(128));
        assert!(decision.estimates[3..].iter().all(|e| e.feasible));
        // A wide non-Clifford circuit has no feasible backend, and the
        // decision says so instead of naming a backend that would refuse.
        let mut wide_t = generators::ghz(200);
        wide_t.t(7);
        let decision = dispatch_circuit(&wide_t);
        assert!(!decision.chosen_estimate().feasible, "{decision:?}");
        assert!(decision.estimates.iter().all(|e| !e.feasible));
    }

    #[test]
    fn low_entanglement_chain_picks_a_structured_backend() {
        let decision = dispatch_circuit(&generators::w_state(16));
        assert_ne!(decision.chosen, "array", "{:?}", decision.estimates);
        assert!(
            decision.chosen.starts_with("mps")
                || decision.chosen == "decision-diagram"
                || decision.chosen == "tensor-network",
            "{:?}",
            decision.chosen
        );
    }

    #[test]
    fn mps_runs_at_the_cap_and_only_when_the_estimate_fits_it() {
        // A chain needs χ̂ = 2, yet the dispatched bond is the cap: the
        // estimate prices the run, it does not truncate it.
        let decision = dispatch_circuit(&generators::w_state(16));
        assert_eq!(decision.chosen, "mps:64", "{:?}", decision.estimates);
        // A 40-qubit QFT needs χ̂ = 2^20: past the cap, MPS is out.
        let decision = dispatch_circuit(&generators::qft(40, false));
        let mps = &decision.estimates[4];
        assert_eq!(mps.spec, "mps:64");
        assert!(!mps.feasible, "{:?}", decision.estimates);
    }

    #[test]
    fn nested_pairs_are_priced_in_the_natural_order() {
        // Five edges cross the middle cut of the order the engines run
        // in, however a reordering would pair them off.
        let mut qc = Circuit::new(10);
        for q in 0..5 {
            qc.h(q).cx(q, 9 - q);
        }
        assert_eq!(circuit_facts(&qc).interaction.cut_width, 5);
        let decision = dispatch_circuit(&qc);
        assert!(!decision.chosen.starts_with("mps"), "{decision:?}");
    }

    #[test]
    fn clifford_discount_prices_dd_below_generic_width() {
        // Same width and gate count, but pure Clifford vs T-heavy: the
        // Clifford circuit must price DD strictly cheaper.
        let mut clifford = Circuit::new(12);
        let mut t_heavy = Circuit::new(12);
        for i in 0..11 {
            clifford.cx(i, i + 1).s(i);
            t_heavy.cx(i, i + 1).t(i);
        }
        let dd_cost = |qc: &Circuit| {
            dispatch_circuit(qc)
                .estimates
                .iter()
                .find(|e| e.spec == "decision-diagram")
                .expect("dd estimate")
                .cost
        };
        assert!(dd_cost(&clifford) < dd_cost(&t_heavy));
    }

    #[test]
    fn wide_clifford_circuit_picks_the_stabilizer_tableau() {
        let decision = dispatch_circuit(&generators::ghz(40));
        assert_eq!(decision.chosen, "stabilizer", "{:?}", decision.estimates);
        // The T-sprinkled variant at the same width must not.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let qc = generators::random_clifford_t(40, 8, 0.2, &mut rng);
        let decision = dispatch_circuit(&qc);
        let stab = decision
            .estimates
            .iter()
            .find(|e| e.spec == "stabilizer")
            .expect("stabilizer estimate");
        assert!(!stab.feasible, "{:?}", decision.estimates);
        assert_ne!(decision.chosen, "stabilizer");
    }

    #[test]
    fn narrow_clifford_circuit_keeps_the_exact_dense_array() {
        // Bell is Clifford but narrow: the stabilizer arm must stay
        // infeasible so `auto` keeps exact dense amplitudes available.
        let decision = dispatch_circuit(&generators::bell());
        let stab = decision
            .estimates
            .iter()
            .find(|e| e.spec == "stabilizer")
            .expect("stabilizer estimate");
        assert!(!stab.feasible);
        assert!(
            decision.chosen.starts_with("array"),
            "{:?}",
            decision.estimates
        );
    }

    #[test]
    fn decision_always_resolves_to_a_feasible_estimate() {
        for qc in [
            generators::bell(),
            generators::ghz(60),
            generators::qft(10, true),
            generators::w_state(8),
        ] {
            let decision = dispatch_circuit(&qc);
            assert!(decision.chosen_estimate().feasible, "{decision:?}");
        }
    }

    #[test]
    fn facts_bundle_is_consistent() {
        let mut qc = Circuit::with_clbits(3, 1);
        qc.h(0).cx(0, 1).t(2).measure(0, 0);
        let facts = circuit_facts(&qc);
        assert_eq!(facts.non_clifford_gates, 1);
        assert_eq!(facts.regions.len(), 1);
        // t(2) feeds no measurement: one dead gate.
        assert_eq!(facts.dead_gates, 1);
        // h, cx, and t all fit one width-5 group before the measure.
        assert_eq!(facts.fused_groups, 1);
    }

    #[test]
    fn conditioned_clifford_gates_are_not_counted_as_non_clifford() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0).measure(0, 0).x(0).c_if(0, true);
        let facts = circuit_facts(&qc);
        assert_eq!(facts.non_clifford_gates, 0);
        // The conditioned x breaks the region but stays Clifford.
        assert_eq!(facts.regions.len(), 1);
        qc.t(0).c_if(0, true);
        assert_eq!(circuit_facts(&qc).non_clifford_gates, 1);
    }
}
