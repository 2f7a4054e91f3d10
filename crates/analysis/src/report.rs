//! Text and JSON rendering of an [`AnalysisReport`].
//!
//! The JSON writer is hand-rolled (the workspace builds offline, without
//! serde); strings go through `qdt_telemetry::json::escape`.

use std::fmt::Write as _;

use qdt_telemetry::json;

use crate::AnalysisReport;

/// Renders a report as human-readable text, one finding per line,
/// followed by the resource summary.
pub fn render_text(name: &str, report: &AnalysisReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let loc = match d.instruction_index {
            Some(i) => format!("instruction {i}"),
            None => "circuit".to_string(),
        };
        let _ = writeln!(
            out,
            "{name}: {}[{}] at {loc}: {}",
            d.severity.label(),
            d.code.as_str(),
            d.message
        );
    }
    let r = &report.resources;
    let _ = writeln!(
        out,
        "{name}: {} qubits, {} clbits, {} instructions, depth {} \
         (2q-depth {}), T-count {}, 2q-gates {}, clifford-only: {}",
        r.num_qubits,
        r.num_clbits,
        r.num_instructions,
        r.depth,
        r.two_qubit_depth,
        r.t_count,
        r.two_qubit_gate_count,
        r.clifford_only
    );
    let counts: Vec<String> = r
        .gate_counts
        .iter()
        .map(|(g, c)| format!("{g}:{c}"))
        .collect();
    if !counts.is_empty() {
        let _ = writeln!(out, "{name}: gate counts: {}", counts.join(" "));
    }
    let df = &report.dataflow;
    let _ = writeln!(
        out,
        "{name}: dataflow: cut-width {}, {} clifford region(s), \
         {} dead gate(s), {} non-clifford gate(s)",
        df.cut_width, df.clifford_regions, df.dead_gates, df.non_clifford_gates
    );
    let estimates: Vec<String> = df
        .dispatch
        .estimates
        .iter()
        .map(|e| {
            format!(
                "{}:{:.3e}{}",
                e.spec,
                e.cost,
                if e.feasible { "" } else { " (infeasible)" }
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{name}: dispatch: auto -> {} [{}]",
        df.dispatch.chosen,
        estimates.join(", ")
    );
    out
}

/// Renders a report as a JSON document:
/// `{"name": …, "diagnostics": […], "resources": {…}, "dataflow": {…}}`.
pub fn render_json(name: &str, report: &AnalysisReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"name\": \"{}\",", json::escape(name));
    out.push_str("  \"diagnostics\": [\n");
    for (i, d) in report.diagnostics.iter().enumerate() {
        let idx = match d.instruction_index {
            Some(i) => i.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "    {{\"code\": \"{}\", \"severity\": \"{}\", \
             \"instruction_index\": {idx}, \"message\": \"{}\"}}",
            d.code.as_str(),
            d.severity.label(),
            json::escape(&d.message)
        );
        out.push_str(if i + 1 < report.diagnostics.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    let r = &report.resources;
    out.push_str("  \"resources\": {\n");
    let _ = writeln!(out, "    \"num_qubits\": {},", r.num_qubits);
    let _ = writeln!(out, "    \"num_clbits\": {},", r.num_clbits);
    let _ = writeln!(out, "    \"num_instructions\": {},", r.num_instructions);
    let _ = writeln!(out, "    \"depth\": {},", r.depth);
    let _ = writeln!(out, "    \"two_qubit_depth\": {},", r.two_qubit_depth);
    let _ = writeln!(
        out,
        "    \"two_qubit_gate_count\": {},",
        r.two_qubit_gate_count
    );
    let _ = writeln!(out, "    \"t_count\": {},", r.t_count);
    let _ = writeln!(out, "    \"clifford_only\": {},", r.clifford_only);
    out.push_str("    \"gate_counts\": {");
    let counts: Vec<String> = r
        .gate_counts
        .iter()
        .map(|(g, c)| format!("\"{}\": {c}", json::escape(g)))
        .collect();
    out.push_str(&counts.join(", "));
    out.push_str("}\n  },\n");
    let df = &report.dataflow;
    out.push_str("  \"dataflow\": {\n");
    let _ = writeln!(out, "    \"cut_width\": {},", df.cut_width);
    let _ = writeln!(out, "    \"clifford_regions\": {},", df.clifford_regions);
    let _ = writeln!(out, "    \"dead_gates\": {},", df.dead_gates);
    let _ = writeln!(
        out,
        "    \"non_clifford_gates\": {},",
        df.non_clifford_gates
    );
    let _ = writeln!(
        out,
        "    \"auto_dispatch\": \"{}\",",
        json::escape(&df.dispatch.chosen)
    );
    out.push_str("    \"cost_estimates\": [\n");
    for (i, e) in df.dispatch.estimates.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"spec\": \"{}\", \"cost\": {:.6e}, \"feasible\": {}}}",
            json::escape(&e.spec),
            e.cost,
            e.feasible
        );
        out.push_str(if i + 1 < df.dispatch.estimates.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use crate::Analyzer;
    use qdt_circuit::Circuit;

    #[test]
    fn text_report_lists_findings_and_resources() {
        let mut qc = Circuit::new(2);
        qc.h(0).h(0).cx(0, 1);
        let report = Analyzer::new().analyze(&qc);
        let text = super::render_text("demo", &report);
        assert!(text.contains("QDT201"), "{text}");
        assert!(text.contains("clifford-only: true"), "{text}");
    }

    #[test]
    fn json_report_is_structurally_sound() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).h(0).measure(0, 0);
        let report = Analyzer::new().analyze(&qc);
        let json = super::render_json("demo", &report);
        assert!(json.contains("\"code\": \"QDT201\""), "{json}");
        assert!(json.contains("\"t_count\": 0"), "{json}");
        assert!(json.contains("\"auto_dispatch\": \""), "{json}");
        assert!(json.contains("\"cost_estimates\": ["), "{json}");
        // Balanced braces/brackets (cheap structural sanity check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }
}
