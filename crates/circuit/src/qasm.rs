//! OpenQASM 2.0 subset parser and writer.
//!
//! Supports the `qelib1.inc` gate vocabulary that the suite's IR can
//! express directly (all standard one- and two-qubit gates, `ccx`,
//! `cswap`, `measure`, `reset`, `barrier`), multiple quantum/classical
//! registers (flattened into one index space in declaration order), and
//! whole-register broadcast for single-qubit gates and measurements.
//!
//! # Example
//!
//! ```
//! use qdt_circuit::qasm;
//!
//! let src = r#"
//!     OPENQASM 2.0;
//!     include "qelib1.inc";
//!     qreg q[2];
//!     creg c[2];
//!     h q[0];
//!     cx q[0], q[1];
//!     measure q -> c;
//! "#;
//! let circuit = qasm::parse(src)?;
//! assert_eq!(circuit.num_qubits(), 2);
//! assert_eq!(circuit.count_by_name()["measure"], 2);
//! let round_trip = qasm::parse(&qasm::write(&circuit)?)?;
//! assert_eq!(round_trip.len(), circuit.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::{Circuit, Gate, Instruction, OpKind};

/// Error produced while parsing OpenQASM source.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseQasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QASM parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseQasmError {}

/// Error produced when exporting a circuit that uses operations outside
/// the OpenQASM 2.0 subset (e.g. more than two controls).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteQasmError {
    /// Description of the unsupported instruction.
    pub message: String,
}

impl fmt::Display for WriteQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot export to QASM: {}", self.message)
    }
}

impl std::error::Error for WriteQasmError {}

fn err(line: usize, message: impl Into<String>) -> ParseQasmError {
    ParseQasmError {
        line,
        message: message.into(),
    }
}

/// Parses an OpenQASM 2.0 program into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on syntax errors, unknown gates, undefined
/// registers or out-of-range indices.
pub fn parse(source: &str) -> Result<Circuit, ParseQasmError> {
    let mut qregs: Vec<(String, usize, usize)> = Vec::new(); // (name, offset, size)
    let mut cregs: Vec<(String, usize, usize)> = Vec::new();
    let mut num_qubits = 0usize;
    let mut num_clbits = 0usize;
    let mut statements: Vec<(usize, String)> = Vec::new();

    // Strip comments, split into `;`-terminated statements while tracking
    // line numbers.
    let mut current = String::new();
    let mut start_line = 1;
    for (lineno, raw) in source.lines().enumerate() {
        let line = match raw.find("//") {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        for ch in line.chars() {
            if ch == ';' {
                let stmt = current.trim().to_string();
                if !stmt.is_empty() {
                    statements.push((start_line, stmt));
                }
                current.clear();
                start_line = lineno + 1;
            } else {
                if current.trim().is_empty() {
                    start_line = lineno + 1;
                }
                current.push(ch);
            }
        }
        current.push(' ');
    }
    if !current.trim().is_empty() {
        return Err(err(start_line, "unterminated statement (missing ';')"));
    }

    let mut pending: Vec<(usize, String)> = Vec::new();

    for (line, stmt) in statements {
        let stmt = stmt.trim();
        if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("qreg") {
            let (name, size) = parse_decl(rest.trim(), line)?;
            qregs.push((name, num_qubits, size));
            num_qubits += size;
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("creg") {
            let (name, size) = parse_decl(rest.trim(), line)?;
            cregs.push((name, num_clbits, size));
            num_clbits += size;
            continue;
        }
        pending.push((line, stmt.to_string()));
    }

    let mut qc = Circuit::with_clbits(num_qubits, num_clbits);
    let qmap: HashMap<&str, (usize, usize)> = qregs
        .iter()
        .map(|(n, o, s)| (n.as_str(), (*o, *s)))
        .collect();
    let cmap: HashMap<&str, (usize, usize)> = cregs
        .iter()
        .map(|(n, o, s)| (n.as_str(), (*o, *s)))
        .collect();

    for (line, stmt) in pending {
        apply_statement(&mut qc, &qmap, &cmap, line, &stmt)?;
    }
    Ok(qc)
}

fn parse_decl(rest: &str, line: usize) -> Result<(String, usize), ParseQasmError> {
    // e.g. `q[3]`
    let open = rest
        .find('[')
        .ok_or_else(|| err(line, "expected '[' in register declaration"))?;
    let close = rest
        .find(']')
        .ok_or_else(|| err(line, "expected ']' in register declaration"))?;
    let name = rest[..open].trim().to_string();
    if name.is_empty() {
        return Err(err(line, "empty register name"));
    }
    let size: usize = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| err(line, "invalid register size"))?;
    if size == 0 {
        return Err(err(line, "register size must be positive"));
    }
    Ok((name, size))
}

/// An argument reference: either one bit or a whole register.
enum ArgRef {
    Bit(usize),
    Register(usize, usize), // offset, size
}

fn parse_arg(
    text: &str,
    map: &HashMap<&str, (usize, usize)>,
    line: usize,
    what: &str,
) -> Result<ArgRef, ParseQasmError> {
    let text = text.trim();
    if let Some(open) = text.find('[') {
        let close = text
            .find(']')
            .ok_or_else(|| err(line, format!("expected ']' in {what} argument")))?;
        let name = text[..open].trim();
        let idx: usize = text[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| err(line, format!("invalid index in {what} argument")))?;
        let &(offset, size) = map
            .get(name)
            .ok_or_else(|| err(line, format!("undefined {what} register '{name}'")))?;
        if idx >= size {
            return Err(err(
                line,
                format!("index {idx} out of range for register '{name}' of size {size}"),
            ));
        }
        Ok(ArgRef::Bit(offset + idx))
    } else {
        let &(offset, size) = map
            .get(text)
            .ok_or_else(|| err(line, format!("undefined {what} register '{text}'")))?;
        Ok(ArgRef::Register(offset, size))
    }
}

fn apply_statement(
    qc: &mut Circuit,
    qmap: &HashMap<&str, (usize, usize)>,
    cmap: &HashMap<&str, (usize, usize)>,
    line: usize,
    stmt: &str,
) -> Result<(), ParseQasmError> {
    // Classical condition: `if (c[k] == v) stmt` (single-bit dialect
    // extension) or the OpenQASM 2.0 `if (c == v) stmt` restricted to
    // one-bit registers.
    if let Some(rest) = stmt.strip_prefix("if") {
        let rest = rest.trim_start();
        if !rest.starts_with('(') {
            return Err(err(line, "expected '(' after 'if'"));
        }
        let close = matching_paren(rest, 0).ok_or_else(|| err(line, "unbalanced parentheses"))?;
        let cond_text = &rest[1..close];
        let inner = rest[close + 1..].trim();
        if inner.is_empty() {
            return Err(err(line, "'if' requires a statement to condition"));
        }
        let parts: Vec<&str> = cond_text.split("==").collect();
        if parts.len() != 2 {
            return Err(err(line, "condition must be 'c[k] == value'"));
        }
        let value: u64 = parts[1]
            .trim()
            .parse()
            .map_err(|_| err(line, "invalid condition value"))?;
        let clbit = match parse_arg(parts[0], cmap, line, "classical")? {
            ArgRef::Bit(b) => b,
            ArgRef::Register(offset, 1) => offset,
            ArgRef::Register(..) => {
                return Err(err(
                    line,
                    "only single-bit conditions are supported (use c[k] == 0|1)",
                ))
            }
        };
        if value > 1 {
            return Err(err(line, "single-bit condition value must be 0 or 1"));
        }
        let before = qc.len();
        apply_statement(qc, qmap, cmap, line, inner)?;
        for i in before..qc.len() {
            qc.set_cond(
                i,
                Some(crate::Condition {
                    clbit,
                    value: value == 1,
                }),
            );
        }
        return Ok(());
    }

    // measure q[i] -> c[j];
    if let Some(rest) = stmt.strip_prefix("measure") {
        let parts: Vec<&str> = rest.split("->").collect();
        if parts.len() != 2 {
            return Err(err(line, "measure requires 'q -> c'"));
        }
        let q = parse_arg(parts[0], qmap, line, "quantum")?;
        let c = parse_arg(parts[1], cmap, line, "classical")?;
        match (q, c) {
            (ArgRef::Bit(qb), ArgRef::Bit(cb)) => {
                qc.push(Instruction::new(OpKind::Measure {
                    qubit: qb,
                    clbit: cb,
                }))
                .map_err(|e| err(line, e.to_string()))?;
            }
            (ArgRef::Register(qo, qs), ArgRef::Register(co, cs)) => {
                if qs != cs {
                    return Err(err(line, "register sizes differ in broadcast measure"));
                }
                for k in 0..qs {
                    qc.push(Instruction::new(OpKind::Measure {
                        qubit: qo + k,
                        clbit: co + k,
                    }))
                    .map_err(|e| err(line, e.to_string()))?;
                }
            }
            _ => return Err(err(line, "cannot mix bit and register in measure")),
        }
        return Ok(());
    }

    if let Some(rest) = stmt.strip_prefix("reset") {
        match parse_arg(rest, qmap, line, "quantum")? {
            ArgRef::Bit(q) => {
                qc.push(Instruction::new(OpKind::Reset { qubit: q }))
                    .map_err(|e| err(line, e.to_string()))?;
            }
            ArgRef::Register(o, s) => {
                for k in 0..s {
                    qc.push(Instruction::new(OpKind::Reset { qubit: o + k }))
                        .map_err(|e| err(line, e.to_string()))?;
                }
            }
        }
        return Ok(());
    }

    if let Some(rest) = stmt.strip_prefix("barrier") {
        let mut qubits = Vec::new();
        for part in rest.split(',') {
            match parse_arg(part, qmap, line, "quantum")? {
                ArgRef::Bit(q) => qubits.push(q),
                ArgRef::Register(o, s) => qubits.extend(o..o + s),
            }
        }
        qc.push(Instruction::new(OpKind::Barrier(qubits)))
            .map_err(|e| err(line, e.to_string()))?;
        return Ok(());
    }

    // Gate application: name[(params)] args
    let (head, args_text) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(pos) if !stmt[..pos].contains('(') && stmt.find('(').is_some_and(|p| p > pos) => {
            (&stmt[..pos], &stmt[pos..])
        }
        _ => {
            // The gate name may be glued to '(' as in `rz(pi/2) q[0]`.
            if let Some(open) = stmt.find('(') {
                let close = matching_paren(stmt, open)
                    .ok_or_else(|| err(line, "unbalanced parentheses"))?;
                (&stmt[..close + 1], &stmt[close + 1..])
            } else {
                match stmt.find(|c: char| c.is_whitespace()) {
                    Some(pos) => (&stmt[..pos], &stmt[pos..]),
                    None => return Err(err(line, format!("malformed statement '{stmt}'"))),
                }
            }
        }
    };

    let (name, params) = if let Some(open) = head.find('(') {
        let close =
            matching_paren(head, open).ok_or_else(|| err(line, "unbalanced parentheses"))?;
        let name = head[..open].trim();
        let params: Result<Vec<f64>, ParseQasmError> = split_top_level(&head[open + 1..close])
            .into_iter()
            .map(|p| eval_expr(&p, line))
            .collect();
        (name.to_string(), params?)
    } else {
        (head.trim().to_string(), vec![])
    };

    let args: Vec<ArgRef> = split_top_level(args_text)
        .into_iter()
        .map(|a| parse_arg(&a, qmap, line, "quantum"))
        .collect::<Result<_, _>>()?;

    // Broadcast: single-qubit gate applied to a whole register.
    if args.len() == 1 {
        if let ArgRef::Register(o, s) = args[0] {
            for k in 0..s {
                apply_gate(qc, &name, &params, &[o + k], line)?;
            }
            return Ok(());
        }
    }
    let bits: Vec<usize> = args
        .iter()
        .map(|a| match a {
            ArgRef::Bit(b) => Ok(*b),
            ArgRef::Register(..) => Err(err(
                line,
                "whole-register arguments only supported for single-qubit gates",
            )),
        })
        .collect::<Result<_, _>>()?;
    apply_gate(qc, &name, &params, &bits, line)
}

fn matching_paren(s: &str, open: usize) -> Option<usize> {
    let mut depth = 0;
    for (i, c) in s.char_indices().skip(open) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

fn expect_params(name: &str, params: &[f64], n: usize, line: usize) -> Result<(), ParseQasmError> {
    if params.len() != n {
        Err(err(
            line,
            format!(
                "gate '{name}' expects {n} parameter(s), got {}",
                params.len()
            ),
        ))
    } else {
        Ok(())
    }
}

fn expect_args(name: &str, bits: &[usize], n: usize, line: usize) -> Result<(), ParseQasmError> {
    if bits.len() != n {
        Err(err(
            line,
            format!("gate '{name}' expects {n} qubit(s), got {}", bits.len()),
        ))
    } else {
        Ok(())
    }
}

fn apply_gate(
    qc: &mut Circuit,
    name: &str,
    params: &[f64],
    bits: &[usize],
    line: usize,
) -> Result<(), ParseQasmError> {
    use std::f64::consts::PI;
    let push = |qc: &mut Circuit, gate: Gate, target: usize, controls: &[usize]| {
        qc.push(Instruction::new(OpKind::Unitary {
            gate,
            target,
            controls: controls.to_vec(),
        }))
        .map_err(|e| err(line, e.to_string()))
    };
    let simple_1q = |g: Gate| -> Result<(Gate, usize), ParseQasmError> {
        expect_params(name, params, 0, line)?;
        expect_args(name, bits, 1, line)?;
        Ok((g, bits[0]))
    };
    match name {
        "id" | "x" | "y" | "z" | "h" | "s" | "sdg" | "t" | "tdg" | "sx" | "sxdg" => {
            let g = match name {
                "id" => Gate::I,
                "x" => Gate::X,
                "y" => Gate::Y,
                "z" => Gate::Z,
                "h" => Gate::H,
                "s" => Gate::S,
                "sdg" => Gate::Sdg,
                "t" => Gate::T,
                "tdg" => Gate::Tdg,
                "sx" => Gate::Sx,
                _ => Gate::Sxdg,
            };
            let (g, t) = simple_1q(g)?;
            push(qc, g, t, &[])
        }
        "rx" | "ry" | "rz" | "p" | "u1" => {
            expect_params(name, params, 1, line)?;
            expect_args(name, bits, 1, line)?;
            let g = match name {
                "rx" => Gate::Rx(params[0]),
                "ry" => Gate::Ry(params[0]),
                "rz" => Gate::Rz(params[0]),
                _ => Gate::Phase(params[0]),
            };
            push(qc, g, bits[0], &[])
        }
        "u2" => {
            expect_params(name, params, 2, line)?;
            expect_args(name, bits, 1, line)?;
            push(qc, Gate::U(PI / 2.0, params[0], params[1]), bits[0], &[])
        }
        "u3" | "u" => {
            expect_params(name, params, 3, line)?;
            expect_args(name, bits, 1, line)?;
            push(qc, Gate::U(params[0], params[1], params[2]), bits[0], &[])
        }
        "cx" | "cy" | "cz" | "ch" | "csx" => {
            expect_params(name, params, 0, line)?;
            expect_args(name, bits, 2, line)?;
            let g = match name {
                "cx" => Gate::X,
                "cy" => Gate::Y,
                "cz" => Gate::Z,
                "ch" => Gate::H,
                _ => Gate::Sx,
            };
            push(qc, g, bits[1], &[bits[0]])
        }
        "cp" | "cu1" | "crx" | "cry" | "crz" => {
            expect_params(name, params, 1, line)?;
            expect_args(name, bits, 2, line)?;
            let g = match name {
                "cp" | "cu1" => Gate::Phase(params[0]),
                "crx" => Gate::Rx(params[0]),
                "cry" => Gate::Ry(params[0]),
                _ => Gate::Rz(params[0]),
            };
            push(qc, g, bits[1], &[bits[0]])
        }
        "ccx" => {
            expect_params(name, params, 0, line)?;
            expect_args(name, bits, 3, line)?;
            push(qc, Gate::X, bits[2], &[bits[0], bits[1]])
        }
        "swap" => {
            expect_params(name, params, 0, line)?;
            expect_args(name, bits, 2, line)?;
            qc.push(Instruction::new(OpKind::Swap {
                a: bits[0],
                b: bits[1],
                controls: vec![],
            }))
            .map_err(|e| err(line, e.to_string()))
        }
        "cswap" => {
            expect_params(name, params, 0, line)?;
            expect_args(name, bits, 3, line)?;
            qc.push(Instruction::new(OpKind::Swap {
                a: bits[1],
                b: bits[2],
                controls: vec![bits[0]],
            }))
            .map_err(|e| err(line, e.to_string()))
        }
        other => Err(err(line, format!("unknown gate '{other}'"))),
    }
}

// --- tiny arithmetic expression evaluator (angles) ------------------------

fn eval_expr(text: &str, line: usize) -> Result<f64, ParseQasmError> {
    let mut parser = ExprParser {
        chars: text.chars().collect(),
        pos: 0,
        line,
    };
    let v = parser.expr()?;
    parser.skip_ws();
    if parser.pos != parser.chars.len() {
        return Err(err(
            line,
            format!("trailing characters in expression '{text}'"),
        ));
    }
    if !v.is_finite() {
        return Err(err(
            line,
            format!("expression '{text}' evaluates to {v}, not a finite angle"),
        ));
    }
    Ok(v)
}

struct ExprParser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
}

impl ExprParser {
    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<f64, ParseQasmError> {
        let mut v = self.term()?;
        while let Some(op) = self.peek() {
            match op {
                '+' => {
                    self.pos += 1;
                    v += self.term()?;
                }
                '-' => {
                    self.pos += 1;
                    v -= self.term()?;
                }
                _ => break,
            }
        }
        Ok(v)
    }

    fn term(&mut self) -> Result<f64, ParseQasmError> {
        let mut v = self.factor()?;
        while let Some(op) = self.peek() {
            match op {
                '*' => {
                    self.pos += 1;
                    v *= self.factor()?;
                }
                '/' => {
                    self.pos += 1;
                    v /= self.factor()?;
                }
                _ => break,
            }
        }
        Ok(v)
    }

    fn factor(&mut self) -> Result<f64, ParseQasmError> {
        match self.peek() {
            Some('-') => {
                self.pos += 1;
                Ok(-self.factor()?)
            }
            Some('+') => {
                self.pos += 1;
                self.factor()
            }
            Some('(') => {
                self.pos += 1;
                let v = self.expr()?;
                if self.peek() != Some(')') {
                    return Err(err(self.line, "expected ')' in expression"));
                }
                self.pos += 1;
                Ok(v)
            }
            Some(c) if c.is_ascii_digit() || c == '.' => {
                let start = self.pos;
                while self.pos < self.chars.len()
                    && (self.chars[self.pos].is_ascii_digit()
                        || self.chars[self.pos] == '.'
                        || self.chars[self.pos] == 'e'
                        || self.chars[self.pos] == 'E'
                        || ((self.chars[self.pos] == '+' || self.chars[self.pos] == '-')
                            && self.pos > start
                            && (self.chars[self.pos - 1] == 'e'
                                || self.chars[self.pos - 1] == 'E')))
                {
                    self.pos += 1;
                }
                let text: String = self.chars[start..self.pos].iter().collect();
                text.parse()
                    .map_err(|_| err(self.line, format!("invalid number '{text}'")))
            }
            Some(c) if c.is_ascii_alphabetic() => {
                let start = self.pos;
                while self.pos < self.chars.len() && self.chars[self.pos].is_ascii_alphanumeric() {
                    self.pos += 1;
                }
                let word: String = self.chars[start..self.pos].iter().collect();
                if word == "pi" {
                    Ok(std::f64::consts::PI)
                } else {
                    Err(err(self.line, format!("unknown identifier '{word}'")))
                }
            }
            other => Err(err(
                self.line,
                format!("unexpected character {other:?} in expression"),
            )),
        }
    }
}

// --- writer ----------------------------------------------------------------

/// Writes a circuit as an OpenQASM 2.0 program with a single `q` register
/// (and `c` register if the circuit has classical bits).
///
/// # Errors
///
/// Returns [`WriteQasmError`] for instructions outside the OpenQASM 2.0
/// subset: more than two controls, controlled gates with no standard name
/// (e.g. controlled-T), or controlled swaps with more than one control.
pub fn write(circuit: &Circuit) -> Result<String, WriteQasmError> {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    if circuit.num_clbits() > 0 {
        out.push_str(&format!("creg c[{}];\n", circuit.num_clbits()));
    }
    for inst in circuit.instructions() {
        let stmt = write_instruction(inst)?;
        out.push_str(&stmt);
        out.push('\n');
    }
    Ok(out)
}

fn fmt_angle(a: f64) -> String {
    format!("{a:.17}")
}

fn write_instruction(inst: &Instruction) -> Result<String, WriteQasmError> {
    let unsupported = |msg: &str| WriteQasmError {
        message: msg.to_string(),
    };
    // Single-bit conditions use the subscripted `if` dialect extension the
    // parser accepts (OpenQASM 2.0 proper only conditions on whole cregs).
    let prefix = match inst.cond {
        Some(cond) => format!("if (c[{}] == {}) ", cond.clbit, u8::from(cond.value)),
        None => String::new(),
    };
    let stmt = write_kind(inst, unsupported)?;
    Ok(format!("{prefix}{stmt}"))
}

fn write_kind(
    inst: &Instruction,
    unsupported: impl Fn(&str) -> WriteQasmError,
) -> Result<String, WriteQasmError> {
    Ok(match &inst.kind {
        OpKind::Unitary {
            gate,
            target,
            controls,
        } => {
            let t = *target;
            match controls.len() {
                0 => match gate {
                    Gate::U(a, b, c) => format!(
                        "u({},{},{}) q[{t}];",
                        fmt_angle(*a),
                        fmt_angle(*b),
                        fmt_angle(*c)
                    ),
                    g => {
                        let params = g.params();
                        if params.is_empty() {
                            format!("{} q[{t}];", g.name())
                        } else {
                            let ps: Vec<String> = params.iter().map(|&p| fmt_angle(p)).collect();
                            format!("{}({}) q[{t}];", g.name(), ps.join(","))
                        }
                    }
                },
                1 => {
                    let c = controls[0];
                    match gate {
                        Gate::X => format!("cx q[{c}], q[{t}];"),
                        Gate::Y => format!("cy q[{c}], q[{t}];"),
                        Gate::Z => format!("cz q[{c}], q[{t}];"),
                        Gate::H => format!("ch q[{c}], q[{t}];"),
                        Gate::Sx => format!("csx q[{c}], q[{t}];"),
                        Gate::Phase(a) => format!("cp({}) q[{c}], q[{t}];", fmt_angle(*a)),
                        Gate::Rx(a) => format!("crx({}) q[{c}], q[{t}];", fmt_angle(*a)),
                        Gate::Ry(a) => format!("cry({}) q[{c}], q[{t}];", fmt_angle(*a)),
                        Gate::Rz(a) => format!("crz({}) q[{c}], q[{t}];", fmt_angle(*a)),
                        // S = P(π/2), T = P(π/4): emit as controlled phase.
                        Gate::S => format!(
                            "cp({}) q[{c}], q[{t}];",
                            fmt_angle(std::f64::consts::FRAC_PI_2)
                        ),
                        Gate::Sdg => format!(
                            "cp({}) q[{c}], q[{t}];",
                            fmt_angle(-std::f64::consts::FRAC_PI_2)
                        ),
                        Gate::T => format!(
                            "cp({}) q[{c}], q[{t}];",
                            fmt_angle(std::f64::consts::FRAC_PI_4)
                        ),
                        Gate::Tdg => format!(
                            "cp({}) q[{c}], q[{t}];",
                            fmt_angle(-std::f64::consts::FRAC_PI_4)
                        ),
                        other => {
                            return Err(unsupported(&format!(
                                "controlled {} has no OpenQASM 2.0 name",
                                other.name()
                            )))
                        }
                    }
                }
                2 => match gate {
                    Gate::X => format!("ccx q[{}], q[{}], q[{t}];", controls[0], controls[1]),
                    other => {
                        return Err(unsupported(&format!(
                            "doubly-controlled {} has no OpenQASM 2.0 name",
                            other.name()
                        )))
                    }
                },
                n => {
                    return Err(unsupported(&format!(
                        "{n} controls exceed OpenQASM 2.0 subset"
                    )))
                }
            }
        }
        OpKind::Swap { a, b, controls } => match controls.len() {
            0 => format!("swap q[{a}], q[{b}];"),
            1 => format!("cswap q[{}], q[{a}], q[{b}];", controls[0]),
            n => return Err(unsupported(&format!("swap with {n} controls"))),
        },
        OpKind::Measure { qubit, clbit } => format!("measure q[{qubit}] -> c[{clbit}];"),
        OpKind::Reset { qubit } => format!("reset q[{qubit}];"),
        OpKind::Barrier(qs) => {
            let args: Vec<String> = qs.iter().map(|q| format!("q[{q}]")).collect();
            format!("barrier {};", args.join(", "))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn parses_bell() {
        let qc =
            parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];")
                .unwrap();
        assert_eq!(qc.num_qubits(), 2);
        assert_eq!(qc.len(), 2);
    }

    #[test]
    fn parses_and_writes_conditions() {
        let qc =
            parse("qreg q[2]; creg c[1]; h q[0]; measure q[0] -> c[0]; if (c[0] == 1) x q[1];")
                .unwrap();
        let inst = qc.instructions().last().unwrap();
        assert_eq!(
            inst.cond,
            Some(crate::Condition {
                clbit: 0,
                value: true
            })
        );
        let text = write(&qc).unwrap();
        assert!(text.contains("if (c[0] == 1) x q[1];"), "{text}");
        let round = parse(&text).unwrap();
        assert_eq!(round.instructions(), qc.instructions());
    }

    #[test]
    fn rejects_register_wide_condition() {
        let e = parse("qreg q[1]; creg c[2]; if (c == 3) x q[0];").unwrap_err();
        assert!(e.message.contains("single-bit"), "{e}");
    }

    #[test]
    fn parses_parameterised_gates() {
        let qc = parse("qreg q[1]; rz(pi/2) q[0]; u(pi, 0, pi) q[0]; p(-3*pi/4) q[0];").unwrap();
        assert_eq!(qc.len(), 3);
        if let OpKind::Unitary {
            gate: Gate::Rz(a), ..
        } = qc.instructions()[0].kind
        {
            assert!((a - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        } else {
            panic!("expected rz");
        }
    }

    #[test]
    fn parses_expressions() {
        let qc = parse("qreg q[1]; rz(2*(1+pi)/4 - -0.5) q[0];").unwrap();
        if let OpKind::Unitary {
            gate: Gate::Rz(a), ..
        } = qc.instructions()[0].kind
        {
            let expect = 2.0 * (1.0 + std::f64::consts::PI) / 4.0 + 0.5;
            assert!((a - expect).abs() < 1e-15);
        } else {
            panic!("expected rz");
        }
    }

    #[test]
    fn broadcast_over_register() {
        let qc = parse("qreg q[3]; creg c[3]; h q; measure q -> c;").unwrap();
        assert_eq!(qc.count_by_name()["h"], 3);
        assert_eq!(qc.count_by_name()["measure"], 3);
    }

    #[test]
    fn multiple_registers_flatten() {
        let qc = parse("qreg a[2]; qreg b[2]; cx a[1], b[0];").unwrap();
        assert_eq!(qc.num_qubits(), 4);
        // a[1] = 1, b[0] = 2
        assert_eq!(qc.instructions()[0].qubits(), vec![2, 1]);
    }

    #[test]
    fn ccx_and_cswap() {
        let qc = parse("qreg q[3]; ccx q[0], q[1], q[2]; cswap q[0], q[1], q[2];").unwrap();
        assert_eq!(qc.instructions()[0].name(), "ccx");
        assert_eq!(qc.instructions()[1].name(), "cswap");
    }

    #[test]
    fn comments_are_ignored() {
        let qc = parse("// header\nqreg q[1]; // reg\nh q[0]; // gate").unwrap();
        assert_eq!(qc.len(), 1);
    }

    #[test]
    fn error_on_unknown_gate() {
        let e = parse("qreg q[1]; frobnicate q[0];").unwrap_err();
        assert!(e.message.contains("unknown gate"));
    }

    #[test]
    fn error_on_missing_semicolon() {
        let e = parse("qreg q[1]; h q[0]").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn error_on_out_of_range_index() {
        let e = parse("qreg q[2]; h q[5];").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse("qreg q[1];\nh q[0];\nbadgate q[0];").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn round_trip_preserves_semantics_structurally() {
        for qc in [
            generators::bell(),
            generators::ghz(4),
            generators::qft(3, true),
            generators::w_state(3),
        ] {
            let text = write(&qc).unwrap();
            let back = parse(&text).unwrap();
            assert_eq!(back.num_qubits(), qc.num_qubits());
            assert_eq!(back.len(), qc.len());
        }
    }

    #[test]
    fn round_trip_measure_and_barrier() {
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).barrier().measure(0, 0).reset(1);
        let text = write(&qc).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), qc.len());
        assert_eq!(back.count_by_name()["barrier"], 1);
        assert_eq!(back.count_by_name()["reset"], 1);
    }

    #[test]
    fn writer_rejects_many_controls() {
        let mut qc = Circuit::new(4);
        qc.mcx(&[0, 1, 2], 3);
        assert!(write(&qc).is_err());
    }

    #[test]
    fn writer_emits_controlled_phase_for_ct() {
        let mut qc = Circuit::new(2);
        qc.gate(Gate::T, 1, &[0]);
        let text = write(&qc).unwrap();
        assert!(text.contains("cp("));
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), 1);
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn u2_gate_parses() {
        let qc = parse("qreg q[1]; u2(0, pi) q[0];").unwrap();
        // u2(0, π) = H up to phase.
        if let crate::OpKind::Unitary { gate, .. } = &qc.instructions()[0].kind {
            let m = gate.matrix();
            assert!(m.approx_eq_up_to_global_phase(&qdt_complex::Matrix::hadamard(), 1e-12));
        } else {
            panic!("expected unitary");
        }
    }

    #[test]
    fn nested_parentheses_in_angles() {
        let qc = parse("qreg q[1]; rz(((pi))/((2))) q[0];").unwrap();
        if let crate::OpKind::Unitary {
            gate: Gate::Rz(a), ..
        } = qc.instructions()[0].kind
        {
            assert!((a - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        } else {
            panic!("expected rz");
        }
    }

    #[test]
    fn scientific_notation_angles() {
        let qc = parse("qreg q[1]; rz(2.5e-1) q[0];").unwrap();
        if let crate::OpKind::Unitary {
            gate: Gate::Rz(a), ..
        } = qc.instructions()[0].kind
        {
            assert!((a - 0.25).abs() < 1e-15);
        } else {
            panic!("expected rz");
        }
    }

    #[test]
    fn division_by_zero_is_a_parse_error_not_a_panic() {
        // The grammar allows it, but ±inf is no angle: the evaluator
        // rejects it with the statement's line instead of panicking.
        let e = parse("qreg q[1];\nrz(1/0) q[0];").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("not a finite angle"), "{e}");
    }

    #[test]
    fn wrong_parameter_count_rejected() {
        assert!(parse("qreg q[1]; rz() q[0];").is_err());
        assert!(parse("qreg q[1]; rz(1, 2) q[0];").is_err());
        assert!(parse("qreg q[1]; h(0.5) q[0];").is_err());
    }

    #[test]
    fn wrong_argument_count_rejected() {
        assert!(parse("qreg q[2]; cx q[0];").is_err());
        assert!(parse("qreg q[2]; h q[0], q[1];").is_err());
    }

    #[test]
    fn duplicate_qubit_in_gate_rejected() {
        let e = parse("qreg q[2]; cx q[0], q[0];").unwrap_err();
        assert!(e.message.contains("more than once"));
    }

    #[test]
    fn unknown_identifier_in_expression() {
        let e = parse("qreg q[1]; rz(tau) q[0];").unwrap_err();
        assert!(e.message.contains("unknown identifier"));
    }

    #[test]
    fn empty_program_is_empty_circuit() {
        let qc = parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";").unwrap();
        assert_eq!(qc.num_qubits(), 0);
        assert!(qc.is_empty());
    }
}
