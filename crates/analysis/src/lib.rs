//! Static analysis for quantum circuits.
//!
//! The paper's three design tasks — simulation, compilation, verification
//! — all assume their inputs are *well-formed*. This crate makes that
//! assumption checkable:
//!
//! * **Circuit lints** run over a [`qdt_circuit::Circuit`] and produce
//!   structured [`Diagnostic`]s: well-formedness (`QDT0xx`), dead code
//!   (`QDT1xx`), redundancy (`QDT2xx`), and dataflow findings
//!   (`QDT4xx`). Each lint is a function of one [`CircuitFacts`],
//!   computed once per analysis by direct scans of the instruction
//!   stream ([`passes`]): dead gates (`QDT101`/`QDT401`) come from
//!   lightcone liveness, one reverse pass; cancelling pairs
//!   (`QDT201`/`QDT402`) from one commutation-aware scan.
//! * **A cost model** ([`cost`]) prices every backend from the same
//!   dataflow facts; it powers the `auto` engine spec of the umbrella
//!   crate.
//! * **A resource report** ([`ResourceReport`]) summarises gate counts,
//!   T-count, depth and Clifford membership — the quantities compilers
//!   and fault-tolerance estimates key off.
//!
//! # Example
//!
//! ```
//! use qdt_analysis::Analyzer;
//! use qdt_circuit::Circuit;
//!
//! let mut qc = Circuit::new(2);
//! qc.h(0).h(0).cx(0, 1); // adjacent H·H is redundant
//! let report = Analyzer::new().analyze(&qc);
//! assert!(report.diagnostics.iter().any(|d| d.code == qdt_analysis::Code::RedundantPair));
//! ```
//!
//! # Diagnostic code table
//!
//! Every code the linter can emit, by band:
//!
//! | Code | Severity | Finding |
//! |--------|---------|---------------------------------------------------|
//! | QDT001 | error   | qubit index out of range                          |
//! | QDT002 | error   | instruction names the same qubit twice            |
//! | QDT003 | error   | classical bit index out of range                  |
//! | QDT004 | warning | condition reads a clbit no measurement writes     |
//! | QDT101 | warning | dead gate on a qubit after its final measurement  |
//! | QDT102 | info    | qubit never touched by any instruction            |
//! | QDT201 | warning | pair cancels; nothing between shares its qubits   |
//! | QDT401 | warning | other gate outside every measurement lightcone    |
//! | QDT402 | warning | pair cancels through shared, commuting gates      |
//! | QDT403 | info    | qubit never entangled with the measured set       |
//! | QDT404 | info    | wide Clifford-only circuit on exponential backend |
//! | QDT405 | warning | measurement result overwritten before any read    |

pub mod cost;
pub mod passes;

mod report;
mod resources;
mod wellformed;

pub use cost::{
    circuit_facts, dispatch_circuit, plan_dispatch, BackendCost, CircuitFacts, DispatchDecision,
};
pub use report::{render_json, render_text};
pub use resources::{resource_report, ResourceReport};

use qdt_circuit::Circuit;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: nothing wrong, but worth knowing.
    Info,
    /// Suspicious but executable.
    Warning,
    /// The circuit is ill-formed; backends may panic or mis-execute.
    Error,
}

impl Severity {
    /// Lower-case label used by the reporters.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes. The numeric bands group related findings:
/// `QDT0xx` well-formedness, `QDT1xx` dead code, `QDT2xx` redundancy,
/// `QDT4xx` dataflow facts (liveness, commutation, interaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// QDT001: a qubit index is out of range for the register.
    QubitOutOfRange,
    /// QDT002: one instruction names the same qubit twice.
    DuplicateQubit,
    /// QDT003: a classical bit index is out of range.
    ClbitOutOfRange,
    /// QDT004: an instruction is conditioned on a classical bit no
    /// earlier measurement writes.
    CondUnwrittenClbit,
    /// QDT101: a gate outside every measurement lightcone acts on a
    /// qubit after that qubit's final measurement.
    GateAfterMeasure,
    /// QDT102: a qubit is never touched by any instruction.
    UntouchedQubit,
    /// QDT201: two instructions cancel (H·H, X·X, CX·CX, …) and no
    /// instruction between them shares a qubit with them.
    RedundantPair,
    /// QDT401: a gate lies outside every measurement lightcone — no
    /// def-use chain connects it to an observed outcome — and touches
    /// no qubit after its final measurement (that case is QDT101).
    OutsideLightcone,
    /// QDT402: a gate pair cancels through intervening gates that share
    /// a qubit with it and provably commute with both.
    CommutingCancellation,
    /// QDT403: a qubit is touched by gates but never entangled with any
    /// measured qubit.
    UnentangledQubit,
    /// QDT404: a wide Clifford-only circuit for which exponential-cost
    /// dense backends are predicted overkill.
    CliffordOnlyExponential,
    /// QDT405: a measurement's classical result is overwritten before
    /// any condition reads it — the qubit is collapsed for a value
    /// nothing observes.
    DeadClbitWrite,
}

impl Code {
    /// Every code, in `as_str` order — handy for exhaustive table tests.
    pub const ALL: [Code; 12] = [
        Code::QubitOutOfRange,
        Code::DuplicateQubit,
        Code::ClbitOutOfRange,
        Code::CondUnwrittenClbit,
        Code::GateAfterMeasure,
        Code::UntouchedQubit,
        Code::RedundantPair,
        Code::OutsideLightcone,
        Code::CommutingCancellation,
        Code::UnentangledQubit,
        Code::CliffordOnlyExponential,
        Code::DeadClbitWrite,
    ];
}

impl Code {
    /// The stable `QDTnnn` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::QubitOutOfRange => "QDT001",
            Code::DuplicateQubit => "QDT002",
            Code::ClbitOutOfRange => "QDT003",
            Code::CondUnwrittenClbit => "QDT004",
            Code::GateAfterMeasure => "QDT101",
            Code::UntouchedQubit => "QDT102",
            Code::RedundantPair => "QDT201",
            Code::OutsideLightcone => "QDT401",
            Code::CommutingCancellation => "QDT402",
            Code::UnentangledQubit => "QDT403",
            Code::CliffordOnlyExponential => "QDT404",
            Code::DeadClbitWrite => "QDT405",
        }
    }

    /// The severity this code is reported at.
    pub fn severity(self) -> Severity {
        match self {
            Code::QubitOutOfRange | Code::ClbitOutOfRange | Code::DuplicateQubit => Severity::Error,
            Code::CondUnwrittenClbit
            | Code::GateAfterMeasure
            | Code::RedundantPair
            | Code::OutsideLightcone
            | Code::CommutingCancellation
            | Code::DeadClbitWrite => Severity::Warning,
            Code::UntouchedQubit | Code::UnentangledQubit | Code::CliffordOnlyExponential => {
                Severity::Info
            }
        }
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code identifying the kind of finding.
    pub code: Code,
    /// How bad it is.
    pub severity: Severity,
    /// The instruction the finding anchors to (`None` for circuit-level
    /// findings such as untouched qubits).
    pub instruction_index: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at `code`'s default severity.
    pub fn new(code: Code, instruction_index: Option<usize>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            instruction_index,
            message: message.into(),
        }
    }
}

/// Dataflow facts and the cost-model verdict, condensed for reports.
#[derive(Debug, Clone)]
pub struct DataflowSummary {
    /// Greedy cut-width of the interaction graph (log₂ Schmidt-rank
    /// proxy).
    pub cut_width: usize,
    /// Number of maximal Clifford-only regions.
    pub clifford_regions: usize,
    /// Unitary gates outside every measurement lightcone (0 when the
    /// circuit has no measurements).
    pub dead_gates: usize,
    /// Non-Clifford unitary gates, conditioned or not.
    pub non_clifford_gates: usize,
    /// The cost model's backend choice and all per-backend estimates.
    pub dispatch: DispatchDecision,
}

/// The combined result of running the analyzer.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// All findings, ordered by instruction index (circuit-level findings
    /// last) then code.
    pub diagnostics: Vec<Diagnostic>,
    /// The circuit's resource summary.
    pub resources: ResourceReport,
    /// Dataflow facts plus the cost model's dispatch verdict.
    pub dataflow: DataflowSummary,
}

impl AnalysisReport {
    /// Returns `true` if no finding is at [`Severity::Error`].
    pub fn is_clean(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Findings with the given code.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }
}

/// Runs every lint plus the resource report and the cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analyzer;

impl Analyzer {
    /// The analyzer. Its lints are well-formedness (with untouched
    /// qubits), dead gates, dead clbit writes, cancelling pairs,
    /// isolated qubits, and backend fit.
    pub fn new() -> Self {
        Analyzer
    }

    /// Computes the circuit's [`CircuitFacts`] once, runs every lint
    /// over them, and collects the findings.
    pub fn analyze(&self, circuit: &Circuit) -> AnalysisReport {
        let facts = circuit_facts(circuit);
        let dispatch = plan_dispatch(&facts);
        let mut diagnostics = wellformed::well_formedness(circuit);
        diagnostics.extend(passes::dead_gates(circuit, &facts));
        diagnostics.extend(passes::dead_clbit_writes(circuit));
        diagnostics.extend(passes::cancelling_pairs(circuit));
        diagnostics.extend(passes::isolated_qubits(circuit, &facts));
        diagnostics.extend(passes::backend_fit(&facts, &dispatch));
        diagnostics.sort_by(|a, b| {
            // Circuit-level findings (no index) sort after instruction
            // findings; ties break on code for stable output.
            let ka = (a.instruction_index.is_none(), a.instruction_index, a.code);
            let kb = (b.instruction_index.is_none(), b.instruction_index, b.code);
            ka.cmp(&kb)
        });
        let dataflow = DataflowSummary {
            cut_width: facts.interaction.cut_width,
            clifford_regions: facts.regions.len(),
            dead_gates: facts.dead_gates,
            non_clifford_gates: facts.non_clifford_gates,
            dispatch,
        };
        AnalysisReport {
            diagnostics,
            resources: facts.resources,
            dataflow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdt_circuit::{Circuit, Gate, Instruction, OpKind};

    fn unchecked_gate(qc: &mut Circuit, gate: Gate, target: usize, controls: &[usize]) {
        qc.push_unchecked(Instruction::new(OpKind::Unitary {
            gate,
            target,
            controls: controls.to_vec(),
        }));
    }

    #[test]
    fn clean_circuit_is_clean() {
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let report = Analyzer::new().analyze(&qc);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn malformed_circuit_yields_wellformedness_codes() {
        let mut qc = Circuit::with_clbits(2, 1);
        unchecked_gate(&mut qc, Gate::X, 7, &[]); // QDT001
        unchecked_gate(&mut qc, Gate::X, 1, &[1]); // QDT002
        qc.push_unchecked(Instruction::new(OpKind::Measure { qubit: 0, clbit: 9 })); // QDT003
        qc.push_unchecked(
            Instruction::new(OpKind::Unitary {
                gate: Gate::Z,
                target: 0,
                controls: vec![],
            })
            .with_cond(0, true), // QDT004: c[0] never written
        );
        let report = Analyzer::new().analyze(&qc);
        for code in [
            Code::QubitOutOfRange,
            Code::DuplicateQubit,
            Code::ClbitOutOfRange,
            Code::CondUnwrittenClbit,
        ] {
            assert!(
                report.with_code(code).count() > 0,
                "expected {} in {:?}",
                code.as_str(),
                report.diagnostics
            );
        }
        assert!(!report.is_clean());
    }

    #[test]
    fn every_code_appears_exactly_once_in_the_doc_table() {
        // Satellite: the documented code table at the top of this file
        // must list each emittable code exactly once, with the right
        // severity label, so docs can never drift from the enum.
        let source = include_str!("lib.rs");
        let rows: Vec<&str> = source
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("//! | QDT"))
            .collect();
        assert_eq!(
            rows.len(),
            Code::ALL.len(),
            "table rows vs Code variants: {rows:#?}"
        );
        for code in Code::ALL {
            let matching: Vec<&&str> = rows
                .iter()
                .filter(|row| row.contains(code.as_str()))
                .collect();
            assert_eq!(
                matching.len(),
                1,
                "{} must appear exactly once in the doc table",
                code.as_str()
            );
            assert!(
                matching[0].contains(code.severity().label()),
                "{} row must carry severity `{}`: {}",
                code.as_str(),
                code.severity().label(),
                matching[0]
            );
        }
    }

    #[test]
    fn analysis_report_carries_dataflow_summary() {
        let mut qc = Circuit::with_clbits(3, 1);
        qc.h(0).cx(0, 1).t(2).measure(0, 0);
        let report = Analyzer::new().analyze(&qc);
        assert_eq!(report.dataflow.clifford_regions, 1);
        assert_eq!(report.dataflow.non_clifford_gates, 1);
        assert_eq!(report.dataflow.dead_gates, 1);
        assert!(!report.dataflow.dispatch.chosen.is_empty());
        assert_eq!(report.dataflow.dispatch.estimates.len(), 6);
    }

    #[test]
    fn diagnostics_are_ordered_by_instruction() {
        let mut qc = Circuit::new(3);
        qc.h(1).h(1); // redundant pair at index 1
        let report = Analyzer::new().analyze(&qc);
        let indices: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| d.instruction_index)
            .collect();
        let mut sorted = indices.clone();
        sorted.sort_by_key(|i| (i.is_none(), *i));
        assert_eq!(indices, sorted);
    }
}

/// The dead-code cases (`QDT101`, `QDT102`), asserted through the
/// lightcone and well-formedness lints that now emit them.
#[cfg(test)]
mod deadcode {
    mod tests {
        use crate::{circuit_facts, passes, wellformed, Analyzer, Code, Diagnostic};
        use qdt_circuit::{Circuit, Gate, Instruction, OpKind};

        fn dead_code(qc: &Circuit) -> Vec<Diagnostic> {
            let mut diags = passes::dead_gates(qc, &circuit_facts(qc));
            diags.extend(wellformed::well_formedness(qc));
            diags
        }

        #[test]
        fn gate_after_final_measure_is_dead() {
            let mut qc = Circuit::with_clbits(2, 2);
            qc.h(0).measure(0, 0).x(0).measure(1, 1);
            let diags = dead_code(&qc);
            assert_eq!(diags.len(), 1);
            assert_eq!(diags[0].code, Code::GateAfterMeasure);
            assert_eq!(diags[0].instruction_index, Some(2));
        }

        #[test]
        fn mid_circuit_measure_is_not_dead() {
            let mut qc = Circuit::with_clbits(1, 2);
            qc.h(0).measure(0, 0).x(0).measure(0, 1);
            assert!(dead_code(&qc).is_empty());
        }

        #[test]
        fn reset_revives_a_measured_qubit() {
            // The reset revives q0, so x(0) is not after its final
            // measurement; measured by nothing, it is QDT401 instead.
            let mut qc = Circuit::with_clbits(1, 1);
            qc.h(0).measure(0, 0).reset(0).x(0);
            let diags = dead_code(&qc);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].code, Code::OutsideLightcone);
            assert_eq!(diags[0].instruction_index, Some(3));
        }

        #[test]
        fn conditioned_gate_feeding_a_measurement_is_not_dead() {
            // measure(0)->c0 writes c0; the conditioned X on q1 reads it
            // and feeds the final measurement of q1: live on every
            // account.
            let mut qc = Circuit::with_clbits(2, 2);
            qc.h(0).measure(0, 0);
            qc.push_unchecked(
                Instruction::new(OpKind::Unitary {
                    gate: Gate::X,
                    target: 1,
                    controls: vec![],
                })
                .with_cond(0, true),
            );
            qc.measure(1, 1);
            assert!(dead_code(&qc).is_empty());
            let report = Analyzer::new().analyze(&qc);
            assert_eq!(report.with_code(Code::GateAfterMeasure).count(), 0);
            assert_eq!(report.with_code(Code::OutsideLightcone).count(), 0);
        }

        #[test]
        fn conditioned_gate_after_final_measure_is_still_dead() {
            // The condition does not shield a gate acting after its
            // qubit's final measurement.
            let mut qc = Circuit::with_clbits(1, 1);
            qc.h(0).measure(0, 0);
            qc.push_unchecked(
                Instruction::new(OpKind::Unitary {
                    gate: Gate::X,
                    target: 0,
                    controls: vec![],
                })
                .with_cond(0, true),
            );
            let diags = dead_code(&qc);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].code, Code::GateAfterMeasure);
        }

        #[test]
        fn untouched_qubit_is_reported() {
            let mut qc = Circuit::new(3);
            qc.h(0).cx(0, 2);
            let diags = dead_code(&qc);
            assert_eq!(diags.len(), 1);
            assert_eq!(diags[0].code, Code::UntouchedQubit);
            assert!(diags[0].message.contains("qubit 1"));
            assert_eq!(diags[0].instruction_index, None);
        }
    }
}

/// The adjacent-pair cases (`QDT201`), asserted through the
/// cancellation scan that now emits them.
#[cfg(test)]
mod redundancy {
    mod tests {
        use crate::passes::cancelling_pairs;
        use crate::{Code, Diagnostic};
        use qdt_circuit::Circuit;

        fn redundant_pairs(qc: &Circuit) -> Vec<Diagnostic> {
            let diags = cancelling_pairs(qc);
            assert!(
                diags.iter().all(|d| d.code == Code::RedundantPair),
                "{diags:?}"
            );
            diags
        }

        #[test]
        fn h_h_is_redundant() {
            let mut qc = Circuit::new(1);
            qc.h(0).h(0);
            let diags = redundant_pairs(&qc);
            assert_eq!(diags.len(), 1);
            assert_eq!(diags[0].instruction_index, Some(1));
        }

        #[test]
        fn cx_cx_is_redundant() {
            let mut qc = Circuit::new(2);
            qc.cx(0, 1).cx(0, 1);
            assert_eq!(redundant_pairs(&qc).len(), 1);
        }

        #[test]
        fn s_sdg_is_redundant() {
            let mut qc = Circuit::new(1);
            qc.s(0).sdg(0);
            assert_eq!(redundant_pairs(&qc).len(), 1);
        }

        #[test]
        fn swap_swap_is_redundant() {
            let mut qc = Circuit::new(2);
            qc.swap(0, 1).swap(0, 1);
            assert_eq!(redundant_pairs(&qc).len(), 1);
        }

        #[test]
        fn intervening_gate_blocks_the_pair() {
            let mut qc = Circuit::new(1);
            qc.h(0).x(0).h(0);
            assert!(redundant_pairs(&qc).is_empty());
        }

        #[test]
        fn different_footprints_do_not_cancel() {
            let mut qc = Circuit::new(3);
            qc.cx(0, 1).cx(0, 2);
            assert!(redundant_pairs(&qc).is_empty());
        }

        #[test]
        fn spectator_qubit_does_not_block() {
            // A gate on an unrelated qubit between the pair leaves it
            // adjacent on its own qubits.
            let mut qc = Circuit::new(2);
            qc.h(0).x(1).h(0);
            assert_eq!(redundant_pairs(&qc).len(), 1);
        }

        #[test]
        fn conditioned_gates_never_cancel() {
            let mut qc = Circuit::with_clbits(1, 1);
            qc.h(0).measure(0, 0).h(0).c_if(0, true);
            // The second H is conditioned: not a static pair with
            // anything.
            assert!(redundant_pairs(&qc).is_empty());
        }
    }
}

/// The dependence rules liveness follows (qubit chains, condition
/// reads, barriers, out-of-range operands), asserted through the
/// liveness they produce.
#[cfg(test)]
mod dag {
    mod tests {
        use crate::passes::lightcone_facts;
        use qdt_circuit::{Circuit, Gate, Instruction, OpKind};

        #[test]
        fn qubit_chains_link_consecutive_touches() {
            // h(0) → cx through q0; cx → x(1) through q1 → measure. The
            // x(0) after the cx reaches no measurement.
            let mut qc = Circuit::with_clbits(2, 1);
            qc.h(0).cx(0, 1).x(1).x(0).measure(1, 0);
            assert_eq!(lightcone_facts(&qc).live, [true, true, true, false, true]);
        }

        #[test]
        fn condition_edge_links_measurement_to_reader() {
            // The reader gains nothing from the measurement it reads,
            // and the measurement is live already.
            let mut qc = Circuit::with_clbits(2, 1);
            qc.h(0).measure(0, 0).x(1).c_if(0, true);
            assert_eq!(lightcone_facts(&qc).live, [true, true, false]);
        }

        #[test]
        fn clbit_redefinition_shadows_earlier_measurement() {
            let mut qc = Circuit::with_clbits(2, 1);
            qc.measure(0, 0).measure(1, 0).z(0).c_if(0, true);
            assert_eq!(lightcone_facts(&qc).live, [true, true, false]);
        }

        #[test]
        fn barriers_are_isolated_nodes() {
            // The qubit chain flows straight through the barrier.
            let mut qc = Circuit::with_clbits(2, 1);
            qc.h(0).barrier().h(0).measure(0, 0);
            assert_eq!(lightcone_facts(&qc).live, [true, false, true, true]);
        }

        #[test]
        fn out_of_range_indices_contribute_no_edges() {
            let mut qc = Circuit::with_clbits(1, 1);
            for _ in 0..2 {
                qc.push_unchecked(Instruction::new(OpKind::Unitary {
                    gate: Gate::X,
                    target: 9,
                    controls: vec![],
                }));
            }
            qc.push_unchecked(Instruction::new(OpKind::Measure { qubit: 9, clbit: 0 }));
            assert_eq!(lightcone_facts(&qc).live, [false, false, true]);
        }
    }
}

/// Liveness propagation: through entangling gates, cut at resets, and
/// settled by one reverse pass.
#[cfg(test)]
mod dataflow {
    mod tests {
        use crate::passes::lightcone_facts;
        use qdt_circuit::Circuit;

        #[test]
        fn forward_reachability_follows_entanglement() {
            // h(0) reaches the measurement of q1 through the cx; x(2)
            // reaches nothing.
            let mut qc = Circuit::with_clbits(3, 1);
            qc.h(0).cx(0, 1).x(2).measure(1, 0);
            assert_eq!(lightcone_facts(&qc).live, [true, true, false, true]);
        }

        #[test]
        fn backward_liveness_stops_at_reset() {
            let mut qc = Circuit::with_clbits(1, 1);
            qc.h(0).reset(0).x(0).measure(0, 0);
            // The H before the reset cannot influence the measurement.
            assert_eq!(lightcone_facts(&qc).live, [false, true, true, true]);
        }

        #[test]
        fn diamond_dependencies_converge_in_one_sweep() {
            // h(0); h(1); cx(0,1); measure — the cx joins two chains.
            let mut qc = Circuit::with_clbits(2, 1);
            qc.h(0).h(1).cx(0, 1).measure(1, 0);
            assert!(lightcone_facts(&qc).live.iter().all(|&l| l));
        }
    }
}
