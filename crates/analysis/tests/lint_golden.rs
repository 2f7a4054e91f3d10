//! Byte-for-byte pins of the `qdt-lint` reports on the two bundled
//! example circuits: `render_text` and `render_json` of
//! `examples/lint_clean.qasm` and `examples/lint_flawed.qasm`, named as
//! the CLI names them when run from the workspace root.
//!
//! The golden files under `tests/golden/` are the CLI's own output:
//!
//! ```text
//! cargo run -q -p qdt-analysis --example qdt-lint -- examples/lint_flawed.qasm
//! cargo run -q -p qdt-analysis --example qdt-lint -- --json examples/lint_flawed.qasm
//! ```

use qdt_analysis::{render_json, render_text, AnalysisReport, Analyzer};

fn analyze(source: &str) -> AnalysisReport {
    let circuit = qdt_circuit::qasm::parse(source).expect("bundled example parses");
    Analyzer::new().analyze(&circuit)
}

fn assert_golden(name: &str, source: &str, text: &str, json: &str) {
    let report = analyze(source);
    assert_eq!(render_text(name, &report), text, "{name}: text report");
    assert_eq!(render_json(name, &report), json, "{name}: JSON report");
}

#[test]
fn clean_example_report_is_pinned() {
    assert_golden(
        "examples/lint_clean.qasm",
        include_str!("../../../examples/lint_clean.qasm"),
        include_str!("golden/lint_clean.txt"),
        include_str!("golden/lint_clean.json"),
    );
}

#[test]
fn flawed_example_report_is_pinned() {
    assert_golden(
        "examples/lint_flawed.qasm",
        include_str!("../../../examples/lint_flawed.qasm"),
        include_str!("golden/lint_flawed.txt"),
        include_str!("golden/lint_flawed.json"),
    );
}
