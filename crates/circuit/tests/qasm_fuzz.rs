//! Fixed-seed fuzzing of the OpenQASM parser with the vendored proptest
//! shim: streams of tokens and junk bytes parse to `Ok` or `Err` but
//! never panic, and every circuit the writer can express survives a
//! write→parse round trip structurally (`==`, angles included).

use proptest::prelude::*;
use qdt_circuit::{generators, qasm, Circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pieces of the accepted language, near misses, and junk bytes.
const TOKENS: &[&str] = &[
    "OPENQASM 2.0;",
    "include \"qelib1.inc\";",
    "qreg",
    "creg",
    "q",
    "c",
    "r",
    "[",
    "]",
    "0",
    "1",
    "2",
    "7",
    "(",
    ")",
    ",",
    ";",
    "->",
    "==",
    "if",
    "measure",
    "reset",
    "barrier",
    "h",
    "cx",
    "rz",
    "u3",
    "u2",
    "ccx",
    "cswap",
    "swap",
    "pi",
    "+",
    "-",
    "*",
    "/",
    "1e3",
    ".5",
    "1e",
    "1/0",
    "tau",
    "q[0]",
    "q[1]",
    "c[0]",
    "// comment;\n",
    "\t",
    "\r\n",
    "\u{2003}",
    "é",
    "#",
    "@",
    "\"",
    "{",
    "\0",
];

/// Statements of valid programs over `qreg q[3]; creg c[2];`.
const STATEMENTS: &[&str] = &[
    "h q[0];",
    "cx q[0], q[1];",
    "rz(pi/2) q[1];",
    "u(pi, 0, -pi/4) q[2];",
    "u2(0, pi) q[0];",
    "cp(-3*pi/4) q[0], q[2];",
    "p(((pi))/((2))) q[1];",
    "ccx q[0], q[1], q[2];",
    "cswap q[0], q[1], q[2];",
    "swap q[1],q[2];",
    "h q;",
    "measure q[0] -> c[0];",
    "reset q[1];",
    "barrier q;",
    "barrier q[0], q[2];",
    "if (c[1] == 1) x q[1];",
    "sx q[0]; // tail\n",
];

fn token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec((0..TOKENS.len(), 0..3usize), 0..60).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(t, sep)| format!("{}{}", TOKENS[t], [" ", "", "\n"][sep]))
            .collect()
    })
}

/// A valid program with up to three characters deleted or replaced by
/// tokens, or tokens inserted.
fn mutated_program() -> impl Strategy<Value = String> {
    let edits = prop::collection::vec((0..1000usize, 0..3usize, 0..TOKENS.len()), 0..4);
    (prop::collection::vec(0..STATEMENTS.len(), 0..10), edits).prop_map(|(body, edits)| {
        let mut src =
            String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[2];\n");
        for s in body {
            src.push_str(STATEMENTS[s]);
            src.push('\n');
        }
        for (at, kind, t) in edits {
            let mut at = at % (src.len() + 1);
            while !src.is_char_boundary(at) {
                at -= 1;
            }
            let next = src[at..].chars().next().map_or(0, char::len_utf8);
            match kind {
                0 => drop(src.drain(at..at + next)),
                1 => src.insert_str(at, TOKENS[t]),
                _ => src.replace_range(at..at + next, TOKENS[t]),
            }
        }
        src
    })
}

/// Parses `src`; an error must name a line of the input.
fn parse_total(src: &str) -> Result<(), TestCaseError> {
    if let Err(e) = qasm::parse(src) {
        let lines = src.split('\n').count();
        prop_assert!(e.line >= 1 && e.line <= lines, "{e} in {src:?}");
    }
    Ok(())
}

/// One circuit from every generator, sized by `n` and drawn from `seed`.
fn generator_circuits(n: usize, seed: u64) -> Vec<(&'static str, Circuit)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let angles: Vec<f64> = (0..4 * n).map(|_| rng.gen_range(-7.0..7.0)).collect();
    let marked = rng.gen_range(0..1u64 << n);
    vec![
        ("bell", generators::bell()),
        ("ghz", generators::ghz(n)),
        ("w", generators::w_state(n)),
        ("qft", generators::qft(n, rng.gen())),
        ("grover", generators::grover(n.min(2), marked % 4, 1)),
        ("bv", generators::bernstein_vazirani(n, marked)),
        ("dj", generators::deutsch_jozsa(n, rng.gen())),
        ("qpe", generators::phase_estimation(n, rng.gen())),
        ("clifford", generators::random_clifford(n, 6, &mut rng)),
        (
            "clifford+t",
            generators::random_clifford_t(n, 6, 0.3, &mut rng),
        ),
        (
            "clifford-seeded",
            generators::random_clifford_seeded(n, 6, seed),
        ),
        ("random", generators::random_circuit(n, 6, &mut rng)),
        (
            "ansatz",
            generators::hardware_efficient_ansatz(n, 2, &angles),
        ),
        ("adder", generators::ripple_carry_adder(n.min(4))),
        (
            "adder-inputs",
            generators::adder_with_inputs(3, marked % 8, seed % 8),
        ),
        (
            "teleportation",
            generators::teleportation(angles[0], angles[1]),
        ),
        ("ipe", generators::iterative_phase_estimation(n, marked)),
        ("adaptive-ghz", generators::adaptive_ghz(n)),
        ("reset-reuse", generators::reset_reuse_ladder(n)),
        ("repetition", generators::repetition_code(n.max(2), 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn token_soup_parses_or_errs_without_panicking(src in token_soup()) {
        parse_total(&src)?;
    }

    #[test]
    fn mutated_programs_parse_or_err_without_panicking(src in mutated_program()) {
        parse_total(&src)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn writer_output_parses_back_to_the_same_circuit(n in 1..10usize, seed in 0..1u64 << 40) {
        for (label, qc) in generator_circuits(n, seed) {
            // Gates with more than two controls have no OpenQASM 2 name.
            let Ok(text) = qasm::write(&qc) else { continue };
            let back = qasm::parse(&text)
                .map_err(|e| TestCaseError::fail(format!("{label}: {e}")))?;
            prop_assert!(back == qc, "{label} (n = {n}, seed = {seed}) changed:\n{text}");
        }
    }
}
