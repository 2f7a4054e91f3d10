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

use std::fmt;

use crate::{Circuit, Condition, Gate, Instruction, OpKind};

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

/// Deepest parenthesis nesting an angle expression may use.
const MAX_EXPR_DEPTH: usize = 64;

/// Parses an OpenQASM 2.0 program into a [`Circuit`].
///
/// The parser makes one forward scan over the source. Tokens are slices
/// borrowed from it, registers are found by a linear scan of the (few)
/// declarations, and nothing is allocated per token or per gate beyond
/// the instruction itself. Registers must be declared before they are
/// used.
///
/// # Errors
///
/// Returns [`ParseQasmError`] on syntax errors, unknown gates, undefined
/// registers or out-of-range indices. Every error carries the line the
/// failing statement starts on.
pub fn parse(source: &str) -> Result<Circuit, ParseQasmError> {
    let mut p = Parser {
        src: source,
        pos: 0,
        line: 1,
        stmt: 0,
        parens: 0,
        qregs: Vec::new(),
        cregs: Vec::new(),
        qc: Circuit::new(0),
    };
    loop {
        p.skip_ws();
        match p.peek() {
            None => return Ok(p.qc),
            Some(b';') => p.pos += 1,
            Some(_) => {
                let line = p.line;
                p.stmt = p.pos;
                if let Err(mut message) = p.statement() {
                    // A statement that runs into the end of the input is
                    // unterminated, whatever else is wrong with it.
                    if p.statement_end().is_none() {
                        message = "unterminated statement (missing ';')".into();
                    }
                    return Err(ParseQasmError { line, message });
                }
            }
        }
    }
}

/// A declared register: its name and its slice of the flat index space.
#[derive(Clone, Copy)]
struct Register<'a> {
    name: &'a str,
    offset: usize,
    size: usize,
}

/// An argument reference: either one bit or a whole register.
#[derive(Clone, Copy)]
enum ArgRef {
    Bit(usize),
    Register(usize, usize), // offset, size
}

/// Up to three operands inline, plus the true count. No gate takes more
/// than three qubits or angles, so a longer list is only ever reported.
#[derive(Clone, Copy, Default)]
struct Operands<T: Copy + Default> {
    items: [T; 3],
    len: usize,
}

impl<T: Copy + Default> Operands<T> {
    fn push(&mut self, value: T) {
        if let Some(slot) = self.items.get_mut(self.len) {
            *slot = value;
        }
        self.len += 1;
    }
}

/// The scanner state. Errors inside a statement are plain messages;
/// [`parse`] attaches the statement's line.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// 1-based line of `pos`.
    line: usize,
    /// Start of the statement being parsed.
    stmt: usize,
    /// Parenthesis depth inside the angle expression being parsed.
    parens: usize,
    qregs: Vec<Register<'a>>,
    cregs: Vec<Register<'a>>,
    qc: Circuit,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace and `//` comments, counting newlines.
    fn skip_ws(&mut self) {
        let src = self.src;
        let bytes = src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => self.pos += 1,
                b'/' if bytes.get(self.pos + 1) == Some(&b'/') => {
                    let rest = &bytes[self.pos..];
                    self.pos += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                }
                0x80..=0xff => match src[self.pos..].chars().next() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                },
                _ => return,
            }
        }
    }

    fn peek_ws(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    fn eat(&mut self, token: &str) -> bool {
        let found = self.src.as_bytes()[self.pos..].starts_with(token.as_bytes());
        if found {
            self.pos += token.len();
        }
        found
    }

    /// The identifier at the cursor (possibly empty).
    fn word(&mut self) -> &'a str {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.pos += 1;
        }
        let src = self.src;
        &src[start..self.pos]
    }

    /// The decimal integer at the cursor; `None` without digits or on
    /// overflow.
    fn integer(&mut self) -> Option<usize> {
        let start = self.pos;
        let mut value = Some(0usize);
        while let Some(digit) = self.peek().filter(u8::is_ascii_digit) {
            value = value.and_then(|v| v.checked_mul(10)?.checked_add(usize::from(digit - b'0')));
            self.pos += 1;
        }
        value.filter(|_| self.pos > start)
    }

    /// The `;` ending the current statement (comments skipped), if any.
    fn statement_end(&self) -> Option<usize> {
        let bytes = self.src.as_bytes();
        let mut i = self.stmt;
        while let Some(&b) = bytes.get(i) {
            match b {
                b';' => return Some(i),
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    i += bytes[i..].iter().position(|&c| c == b'\n')?;
                }
                _ => i += 1,
            }
        }
        None
    }

    fn malformed(&self) -> String {
        let end = self.statement_end().unwrap_or(self.src.len());
        format!("malformed statement '{}'", self.src[self.stmt..end].trim())
    }

    fn statement(&mut self) -> Result<(), String> {
        let head = self.word();
        if head.starts_with("OPENQASM") || head.starts_with("include") {
            let end = self.statement_end().ok_or_else(String::new)?;
            let skipped = &self.src.as_bytes()[self.pos..end];
            self.line += skipped.iter().filter(|&&b| b == b'\n').count();
            self.pos = end + 1;
            return Ok(());
        }
        match head {
            "qreg" => self.declaration(false)?,
            "creg" => self.declaration(true)?,
            _ => self.operation(head)?,
        }
        if self.peek_ws() != Some(b';') {
            return Err(self.malformed());
        }
        self.pos += 1;
        Ok(())
    }

    fn declaration(&mut self, classical: bool) -> Result<(), String> {
        self.skip_ws();
        let name = self.word();
        if self.peek_ws() != Some(b'[') {
            return Err("expected '[' in register declaration".into());
        }
        self.pos += 1;
        self.skip_ws();
        let size = self.integer();
        if self.peek_ws() != Some(b']') {
            return Err("expected ']' in register declaration".into());
        }
        self.pos += 1;
        if name.is_empty() {
            return Err("empty register name".into());
        }
        let size = size.ok_or("invalid register size")?;
        if size == 0 {
            return Err("register size must be positive".into());
        }
        let offset = self
            .qc
            .widen(classical, size)
            .ok_or("invalid register size")?;
        let registers = if classical {
            &mut self.cregs
        } else {
            &mut self.qregs
        };
        registers.push(Register { name, offset, size });
        Ok(())
    }

    fn operation(&mut self, head: &'a str) -> Result<(), String> {
        match head {
            "if" => self.conditioned(),
            "measure" => self.measure(),
            "reset" => match self.arg(false)? {
                ArgRef::Bit(qubit) => self.push(OpKind::Reset { qubit }),
                ArgRef::Register(o, s) => {
                    (o..o + s).try_for_each(|qubit| self.push(OpKind::Reset { qubit }))
                }
            },
            "barrier" => {
                let mut qubits = Vec::new();
                loop {
                    match self.arg(false)? {
                        ArgRef::Bit(q) => qubits.push(q),
                        ArgRef::Register(o, s) => qubits.extend(o..o + s),
                    }
                    if self.peek_ws() != Some(b',') {
                        return self.push(OpKind::Barrier(qubits));
                    }
                    self.pos += 1;
                }
            }
            name => self.gate(name),
        }
    }

    /// `if (c[k] == v) operation` (single-bit dialect extension) or the
    /// OpenQASM 2.0 `if (c == v) operation` restricted to one-bit
    /// registers.
    fn conditioned(&mut self) -> Result<(), String> {
        if self.peek_ws() != Some(b'(') {
            return Err("expected '(' after 'if'".into());
        }
        self.pos += 1;
        let bit = self.arg(true)?;
        self.skip_ws();
        if !self.eat("==") {
            return Err("condition must be 'c[k] == value'".into());
        }
        self.skip_ws();
        let value = self.integer().ok_or("invalid condition value")?;
        if self.peek_ws() != Some(b')') {
            return Err("invalid condition value".into());
        }
        self.pos += 1;
        let clbit = match bit {
            ArgRef::Bit(b) | ArgRef::Register(b, 1) => b,
            ArgRef::Register(..) => {
                return Err("only single-bit conditions are supported (use c[k] == 0|1)".into())
            }
        };
        if value > 1 {
            return Err("single-bit condition value must be 0 or 1".into());
        }
        if matches!(self.peek_ws(), Some(b';') | None) {
            return Err("'if' requires a statement to condition".into());
        }
        let first = self.qc.len();
        let head = self.word();
        self.operation(head)?;
        let cond = Condition {
            clbit,
            value: value == 1,
        };
        for i in first..self.qc.len() {
            self.qc.set_cond(i, Some(cond));
        }
        Ok(())
    }

    fn measure(&mut self) -> Result<(), String> {
        let q = self.arg(false)?;
        self.skip_ws();
        if !self.eat("->") {
            return Err("measure requires 'q -> c'".into());
        }
        match (q, self.arg(true)?) {
            (ArgRef::Bit(qubit), ArgRef::Bit(clbit)) => self.push(OpKind::Measure { qubit, clbit }),
            (ArgRef::Register(qo, qs), ArgRef::Register(co, cs)) => {
                if qs != cs {
                    return Err("register sizes differ in broadcast measure".into());
                }
                (0..qs).try_for_each(|k| {
                    self.push(OpKind::Measure {
                        qubit: qo + k,
                        clbit: co + k,
                    })
                })
            }
            _ => Err("cannot mix bit and register in measure".into()),
        }
    }

    /// One argument: `name[index]` or a whole register `name`.
    fn arg(&mut self, classical: bool) -> Result<ArgRef, String> {
        let what = if classical { "classical" } else { "quantum" };
        self.skip_ws();
        let name = self.word();
        let registers = if classical { &self.cregs } else { &self.qregs };
        // A redeclared name refers to its latest declaration.
        let register = registers.iter().rev().find(|r| r.name == name).copied();
        let undefined = || format!("undefined {what} register '{name}'");
        if self.peek_ws() != Some(b'[') {
            let r = register.ok_or_else(undefined)?;
            return Ok(ArgRef::Register(r.offset, r.size));
        }
        self.pos += 1;
        self.skip_ws();
        let index = self.integer();
        if self.peek_ws() != Some(b']') {
            return Err(format!("expected ']' in {what} argument"));
        }
        self.pos += 1;
        let index = index.ok_or_else(|| format!("invalid index in {what} argument"))?;
        let r = register.ok_or_else(undefined)?;
        if index >= r.size {
            return Err(format!(
                "index {index} out of range for register '{name}' of size {}",
                r.size
            ));
        }
        Ok(ArgRef::Bit(r.offset + index))
    }

    /// Gate application: `name[(angles)] args`, broadcast over a whole
    /// register for single-qubit gates.
    fn gate(&mut self, name: &str) -> Result<(), String> {
        let mut params = Operands::default();
        let has_params = self.peek_ws() == Some(b'(');
        if has_params {
            let open = self.pos;
            self.angles(&mut params)
                .map_err(|e| match self.list_end(open + 1, false) {
                    Some(_) => e,
                    None => "unbalanced parentheses".into(),
                })?;
        }
        if name.is_empty() || (!has_params && matches!(self.peek_ws(), Some(b';') | None)) {
            return Err(self.malformed());
        }
        let mut bits = Operands::default();
        let mut register = None;
        if self.peek_ws() != Some(b';') {
            loop {
                match self.arg(false)? {
                    ArgRef::Bit(b) => bits.push(b),
                    ArgRef::Register(o, s) => {
                        bits.push(o);
                        register = Some((o, s));
                    }
                }
                if self.peek_ws() != Some(b',') {
                    break;
                }
                self.pos += 1;
            }
        }
        match register {
            Some((o, s)) if bits.len == 1 => (o..o + s).try_for_each(|q| {
                let mut bit = Operands::default();
                bit.push(q);
                self.apply_gate(name, &params, &bit)
            }),
            Some(_) => Err("whole-register arguments only supported for single-qubit gates".into()),
            None => self.apply_gate(name, &params, &bits),
        }
    }

    /// The comma-separated angle list after the `(` at the cursor,
    /// through its closing `)`.
    fn angles(&mut self, params: &mut Operands<f64>) -> Result<(), String> {
        self.pos += 1;
        if self.peek_ws() == Some(b')') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let start = self.pos;
            let value = self.expr()?;
            let src = self.src;
            let text = src[start..self.pos].trim_end();
            match self.peek_ws() {
                Some(b',' | b')') => {}
                _ => {
                    let end = self.list_end(start, true).unwrap_or(self.pos);
                    let text = src[start..end].trim();
                    return Err(format!("trailing characters in expression '{text}'"));
                }
            }
            if !value.is_finite() {
                return Err(format!(
                    "expression '{text}' evaluates to {value}, not a finite angle"
                ));
            }
            params.push(value);
            self.pos += 1;
            if self.src.as_bytes()[self.pos - 1] == b')' {
                return Ok(());
            }
        }
    }

    /// From `from` inside an angle list: the `)` closing the list, or
    /// the first top-level `,` when `at_comma`; `None` when the
    /// statement's `;` comes first.
    fn list_end(&self, from: usize, at_comma: bool) -> Option<usize> {
        let mut depth = 0usize;
        for (i, &b) in self.src.as_bytes().iter().enumerate().skip(from) {
            match b {
                b'(' => depth += 1,
                b')' if depth == 0 => return Some(i),
                b')' => depth -= 1,
                b',' if at_comma && depth == 0 => return Some(i),
                b';' => return None,
                _ => {}
            }
        }
        None
    }

    fn expr(&mut self) -> Result<f64, String> {
        let mut v = self.term()?;
        while let Some(op @ (b'+' | b'-')) = self.peek_ws() {
            self.pos += 1;
            let rhs = self.term()?;
            v = if op == b'+' { v + rhs } else { v - rhs };
        }
        Ok(v)
    }

    fn term(&mut self) -> Result<f64, String> {
        let mut v = self.factor()?;
        while let Some(op @ (b'*' | b'/')) = self.peek_ws() {
            self.pos += 1;
            let rhs = self.factor()?;
            v = if op == b'*' { v * rhs } else { v / rhs };
        }
        Ok(v)
    }

    fn factor(&mut self) -> Result<f64, String> {
        // Unary signs fold into one parity: negation is exact.
        let mut negate = false;
        loop {
            match self.peek_ws() {
                Some(b'-') => negate = !negate,
                Some(b'+') => {}
                _ => break,
            }
            self.pos += 1;
        }
        let v = self.primary()?;
        Ok(if negate { -v } else { v })
    }

    fn primary(&mut self) -> Result<f64, String> {
        let src = self.src;
        let bytes = src.as_bytes();
        let start = self.pos;
        match self.peek() {
            Some(b'(') => {
                if self.parens == MAX_EXPR_DEPTH {
                    return Err("expression nested too deeply".into());
                }
                self.pos += 1;
                self.parens += 1;
                let v = self.expr();
                self.parens -= 1;
                let v = v?;
                if self.peek_ws() != Some(b')') {
                    return Err("expected ')' in expression".into());
                }
                self.pos += 1;
                Ok(v)
            }
            Some(c) if c.is_ascii_digit() || c == b'.' => {
                while let Some(&c) = bytes.get(self.pos) {
                    let exponent_sign = matches!(c, b'+' | b'-')
                        && self.pos > start
                        && matches!(bytes[self.pos - 1], b'e' | b'E');
                    if !(c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E') || exponent_sign) {
                        break;
                    }
                    self.pos += 1;
                }
                let text = &src[start..self.pos];
                text.parse().map_err(|_| format!("invalid number '{text}'"))
            }
            Some(c) if c.is_ascii_alphabetic() => {
                while self.peek().is_some_and(|b| b.is_ascii_alphanumeric()) {
                    self.pos += 1;
                }
                match &src[start..self.pos] {
                    "pi" => Ok(std::f64::consts::PI),
                    word => Err(format!("unknown identifier '{word}'")),
                }
            }
            next => {
                // The end of this angle reads as no character at all.
                let end = match next {
                    Some(b',' | b')') => self.parens == 0,
                    other => matches!(other, Some(b';') | None),
                };
                let c = src[start..].chars().next().filter(|_| !end);
                Err(format!("unexpected character {c:?} in expression"))
            }
        }
    }

    fn push(&mut self, kind: OpKind) -> Result<(), String> {
        self.qc
            .push(Instruction::new(kind))
            .map_err(|e| e.to_string())
    }

    /// Appends the standard gate `name` after checking its angle and
    /// qubit counts.
    fn apply_gate(
        &mut self,
        name: &str,
        params: &Operands<f64>,
        bits: &Operands<usize>,
    ) -> Result<(), String> {
        let [p0, p1, p2] = params.items;
        let [b0, b1, b2] = bits.items;
        let (np, nq, kind) = match name {
            "id" => (0, 1, one_q(Gate::I, b0)),
            "x" => (0, 1, one_q(Gate::X, b0)),
            "y" => (0, 1, one_q(Gate::Y, b0)),
            "z" => (0, 1, one_q(Gate::Z, b0)),
            "h" => (0, 1, one_q(Gate::H, b0)),
            "s" => (0, 1, one_q(Gate::S, b0)),
            "sdg" => (0, 1, one_q(Gate::Sdg, b0)),
            "t" => (0, 1, one_q(Gate::T, b0)),
            "tdg" => (0, 1, one_q(Gate::Tdg, b0)),
            "sx" => (0, 1, one_q(Gate::Sx, b0)),
            "sxdg" => (0, 1, one_q(Gate::Sxdg, b0)),
            "rx" => (1, 1, one_q(Gate::Rx(p0), b0)),
            "ry" => (1, 1, one_q(Gate::Ry(p0), b0)),
            "rz" => (1, 1, one_q(Gate::Rz(p0), b0)),
            "p" | "u1" => (1, 1, one_q(Gate::Phase(p0), b0)),
            "u2" => (
                2,
                1,
                one_q(Gate::U(std::f64::consts::FRAC_PI_2, p0, p1), b0),
            ),
            "u3" | "u" => (3, 1, one_q(Gate::U(p0, p1, p2), b0)),
            "cx" => (0, 2, controlled(Gate::X, b1, vec![b0])),
            "cy" => (0, 2, controlled(Gate::Y, b1, vec![b0])),
            "cz" => (0, 2, controlled(Gate::Z, b1, vec![b0])),
            "ch" => (0, 2, controlled(Gate::H, b1, vec![b0])),
            "csx" => (0, 2, controlled(Gate::Sx, b1, vec![b0])),
            "cp" | "cu1" => (1, 2, controlled(Gate::Phase(p0), b1, vec![b0])),
            "crx" => (1, 2, controlled(Gate::Rx(p0), b1, vec![b0])),
            "cry" => (1, 2, controlled(Gate::Ry(p0), b1, vec![b0])),
            "crz" => (1, 2, controlled(Gate::Rz(p0), b1, vec![b0])),
            "ccx" => (0, 3, controlled(Gate::X, b2, vec![b0, b1])),
            "swap" => (0, 2, swap(b0, b1, vec![])),
            "cswap" => (0, 3, swap(b1, b2, vec![b0])),
            other => return Err(format!("unknown gate '{other}'")),
        };
        if params.len != np {
            return Err(format!(
                "gate '{name}' expects {np} parameter(s), got {}",
                params.len
            ));
        }
        if bits.len != nq {
            return Err(format!(
                "gate '{name}' expects {nq} qubit(s), got {}",
                bits.len
            ));
        }
        self.push(kind)
    }
}

fn one_q(gate: Gate, target: usize) -> OpKind {
    controlled(gate, target, Vec::new())
}

fn controlled(gate: Gate, target: usize, controls: Vec<usize>) -> OpKind {
    OpKind::Unitary {
        gate,
        target,
        controls,
    }
}

fn swap(a: usize, b: usize, controls: Vec<usize>) -> OpKind {
    OpKind::Swap { a, b, controls }
}

// --- writer ----------------------------------------------------------------

/// Writes a circuit as an OpenQASM 2.0 program with a single `q` register
/// (and `c` register if the circuit has classical bits).
///
/// # Errors
///
/// Returns [`WriteQasmError`] for instructions outside the OpenQASM 2.0
/// subset: more than two controls, controlled gates with no standard name
/// (e.g. controlled-T), controlled swaps with more than one control, or
/// noise channels.
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

/// The shortest decimal that parses back to exactly `a`.
fn fmt_angle(a: f64) -> String {
    format!("{a}")
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
        OpKind::Channel { .. } => return Err(unsupported("a noise channel")),
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
        assert_eq!(
            qc.instructions()[0].qubits().collect::<Vec<_>>(),
            vec![2, 1]
        );
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
    fn registers_must_be_declared_before_use() {
        let e = parse("h q[0];\nqreg q[1];").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("undefined quantum register 'q'"), "{e}");
    }

    #[test]
    fn a_redeclared_register_name_means_the_latest_declaration() {
        let qc = parse("qreg q[1]; qreg q[2]; x q[1];").unwrap();
        assert_eq!(qc.num_qubits(), 3);
        assert_eq!(qc.instructions()[0].qubits().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn text_after_a_complete_argument_is_rejected() {
        for src in [
            "qreg q[2]; barrier q[0] q[1];",
            "qreg q[2]; h q[0] // c;\nh q[1];",
            "qreg q[3]0;",
        ] {
            let e = parse(src).unwrap_err();
            assert!(e.message.contains("malformed statement"), "{src}: {e}");
        }
    }

    #[test]
    fn errors_carry_the_line_the_statement_starts_on() {
        let e = parse("qreg q[1];\n\n// note\nh\n  q[5];").unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("out of range"), "{e}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let depth = 100_000;
        let src = format!(
            "qreg q[1]; rz({}1{}) q[0];",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let e = parse(&src).unwrap_err();
        assert!(e.message.contains("nested too deeply"), "{e}");
        let signs = format!("qreg q[1]; rz({}1) q[0];", "-".repeat(depth));
        assert_eq!(parse(&signs).unwrap().len(), 1);
    }

    #[test]
    fn unicode_whitespace_separates_tokens() {
        let qc = parse("qreg\u{2003}q[2];\u{a0}cx q[0],\u{2003}q[1];").unwrap();
        assert_eq!(qc.len(), 1);
    }

    #[test]
    fn empty_program_is_empty_circuit() {
        let qc = parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";").unwrap();
        assert_eq!(qc.num_qubits(), 0);
        assert!(qc.is_empty());
    }
}
