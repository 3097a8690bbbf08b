//! Text assembler for the timed-QASM syntax used throughout the paper.
//!
//! Grammar (one statement per line; `#` and `;` start comments):
//!
//! ```text
//! label:                       bind a label to the next address
//! .block w3 deps=w1,w2         open a block with direct dependencies
//! .block w3 deps=none          open a block with no dependencies
//! .block w3 prio=1             open a block with a priority dependency
//! .endblock                    close the open block
//! .step 4                      tag following instructions as circuit step 4
//! .step none                   stop tagging
//! 0 H q0                       quantum: <timing> <gate> <qubits>
//! 1 CNOT q0, q1
//! 2 RX[8] q5                   rotation with 5-bit waveform index
//! 3 MEAS q2
//! FMR r0, q2                   classical instructions use mnemonics
//! BR EQ, label                 branch targets may be labels or numbers
//! MRCE q0, q1, X, NONE         fast-context-switch conditional
//! ```
//!
//! Tokens are separated by whitespace as [`char::is_whitespace`] defines
//! it, operands by commas. Mnemonics, register prefixes and condition
//! names are case-insensitive; directive names are not.

use crate::gate::{Angle, CondOp, Gate1, Gate2};
use crate::instruction::{ClassicalOp, Cond, Instruction, QuantumOp};
use crate::program::{Program, ProgramBuilder, ProgramError, StepId};
use crate::types::{Cycles, Qubit, Reg, SharedReg};
use std::fmt;

/// An assembly error with the 1-based source line where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl AsmError {
    // Kept out of line: no statement that assembles pays for the error
    // paths around it.
    #[cold]
    #[inline(never)]
    fn new(line: usize, message: impl Into<String>) -> Self {
        AsmError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

impl From<ProgramError> for AsmError {
    fn from(e: ProgramError) -> Self {
        AsmError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// Assembles timed-QASM text into a [`Program`].
///
/// The text is read in one forward pass over its bytes: each statement
/// is cut into its head, mnemonic and operands where it stands, numbers
/// are read from those bytes, and the instruction goes straight into a
/// [`ProgramBuilder`]. Nothing is allocated per line, and a character
/// from U+0080 up is decoded only to ask whether it is whitespace.
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending line number for syntax
/// errors, unknown mnemonics, malformed operands, nested `.block`s, and
/// the line number 0 for what only the whole program shows: undefined or
/// duplicate labels and unclosed blocks.
///
/// ```
/// use quape_isa::assemble;
/// let p = assemble("0 X q0\n1 MEAS q0\nSTOP\n")?;
/// assert_eq!(p.len(), 3);
/// # Ok::<(), quape_isa::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new();
    let mut cur = Cursor {
        text: source,
        pos: 0,
    };
    let mut no = 0;
    while cur.pos < source.len() {
        no += 1;
        statement(&mut b, &mut cur, no)?;
        cur.next_line();
    }
    b.finish().map_err(AsmError::from)
}

/// Character classes, as bit flags so a scan can accept several.
/// Whitespace separates tokens.
const SPACE: u8 = 1;
/// A comma separates operands.
const COMMA: u8 = 2;
/// A colon ends a label.
const COLON: u8 = 4;
/// Any other character is part of a token. `\n`, and the `#` or `;` that
/// starts a comment, end the statement and are in no class.
const TOKEN: u8 = 8;
/// A byte from 0x80 up starts a multi-byte character, which is decoded
/// to learn whether it is whitespace ([`SPACE`]) or not ([`TOKEN`]).
const WIDE: u8 = 16;

/// The class of each byte. A lone `\r` is plain whitespace, so a CRLF
/// line reads as its LF line does.
const BYTE_CLASS: [u8; 256] = {
    let mut table = [WIDE; 256];
    let mut b = 0;
    while b < 0x80 {
        table[b] = match b as u8 {
            b'\n' | b'#' | b';' => 0,
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => SPACE,
            b',' => COMMA,
            b':' => COLON,
            _ => TOKEN,
        };
        b += 1;
    }
    table
};

/// A read position in the source text. Every position it holds is a
/// char boundary: it moves over ASCII bytes one at a time and over
/// wider characters whole.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

/// The class and byte length of the multi-byte character at byte `pos`
/// of `text`: the only place a character is decoded.
#[cold]
fn wide_char(text: &str, pos: usize) -> (u8, usize) {
    match text[pos..].chars().next() {
        Some(c) if c.is_whitespace() => (SPACE, c.len_utf8()),
        Some(c) => (TOKEN, c.len_utf8()),
        None => (0, 0),
    }
}

impl<'a> Cursor<'a> {
    /// Moves over the characters whose class is in `classes`, and
    /// returns the class of the one it stops at (0 at the end of the
    /// statement).
    #[inline]
    fn skip(&mut self, classes: u8) -> u8 {
        let bytes = self.text.as_bytes();
        loop {
            let class = bytes
                .get(self.pos)
                .map_or(0, |&b| BYTE_CLASS[usize::from(b)]);
            if class & classes != 0 {
                self.pos += 1;
            } else if class != WIDE {
                return class;
            } else {
                match wide_char(self.text, self.pos) {
                    (class, len) if class & classes != 0 => self.pos += len,
                    (class, _) => return class,
                }
            }
        }
    }

    /// The bytes from `start` to the cursor.
    fn since(&self, start: usize) -> &'a [u8] {
        &self.text.as_bytes()[start..self.pos]
    }

    /// The next whitespace-delimited token (commas included), or `b""`
    /// at the end of the statement.
    fn word(&mut self) -> &'a [u8] {
        self.skip(SPACE);
        let start = self.pos;
        self.skip(TOKEN | COMMA | COLON);
        self.since(start)
    }

    /// The rest of the statement as comma-separated operands, each with
    /// its surrounding whitespace trimmed; empty ones are dropped.
    fn operands(&mut self) -> Operands<'a> {
        let mut ops = Operands {
            slots: [b""; MAX_OPERANDS],
            len: 0,
        };
        loop {
            let mut class = self.skip(SPACE);
            let start = self.pos;
            let mut op: &[u8] = b"";
            // Runs of token characters, with any spaces between them,
            // up to the next comma or the end of the statement.
            while class & (TOKEN | COLON) != 0 {
                class = self.skip(TOKEN | COLON);
                op = self.since(start);
                if class == SPACE {
                    class = self.skip(SPACE);
                }
            }
            if !op.is_empty() {
                ops.push(op);
            }
            if class != COMMA {
                return ops;
            }
            self.pos += 1;
        }
    }

    /// Moves past the next `\n`, or to the end of the text.
    fn next_line(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_identifier(s: &[u8]) -> bool {
    s.first().is_some_and(|&b| is_ident_start(b)) && s.iter().all(|&b| is_ident_byte(b))
}

/// A token as text, for names and messages. Tokens are cut at char
/// boundaries of the source, so this never falls back.
fn text(tok: &[u8]) -> &str {
    std::str::from_utf8(tok).unwrap_or_default()
}

/// One line: a blank or comment line, a directive, or an instruction with
/// an optional `label:` in front. Stops at or before the line's end.
fn statement(b: &mut ProgramBuilder, cur: &mut Cursor<'_>, no: usize) -> Result<(), AsmError> {
    let start = match cur.skip(SPACE) {
        0 => return Ok(()),
        _ => cur.pos,
    };
    if cur.text.as_bytes()[start] == b'.' {
        cur.pos += 1;
        return directive(b, cur, no);
    }
    // The head runs to the next space. A label is an identifier directly
    // followed by the line's first colon, so it ends the head's first
    // stretch without a colon.
    if cur.skip(TOKEN | COMMA) == COLON {
        if is_identifier(cur.since(start)) {
            b.label(text(cur.since(start)));
            cur.pos += 1;
            let head = cur.word();
            if head.is_empty() {
                return Ok(());
            }
            return instruction(b, head, cur, no);
        }
        cur.skip(TOKEN | COMMA | COLON);
    }
    instruction(b, cur.since(start), cur, no)
}

fn directive(b: &mut ProgramBuilder, cur: &mut Cursor<'_>, no: usize) -> Result<(), AsmError> {
    match cur.word() {
        b"block" => {
            if let Some(open) = b.open_block() {
                return Err(AsmError::new(
                    no,
                    format!("nested `.block`: block `{open}` is still open"),
                ));
            }
            let name = text(cur.word());
            if name.is_empty() {
                return Err(AsmError::new(no, ".block requires a name"));
            }
            let spec = match text(cur.word()) {
                "" => "deps=none",
                spec => spec,
            };
            if let Some(p) = spec.strip_prefix("prio=") {
                let prio = parse_uint(p.as_bytes(), u16::MAX.into())
                    .ok_or_else(|| AsmError::new(no, format!("bad priority `{p}`")))?;
                b.begin_block(name, crate::Dependency::Priority(prio as u16));
            } else if let Some(d) = spec.strip_prefix("deps=") {
                if d.eq_ignore_ascii_case("none") {
                    b.begin_block(name, crate::Dependency::none());
                } else {
                    let deps: Vec<&str> = d.split(',').collect();
                    for dep in &deps {
                        if !b.has_block(dep) {
                            return Err(AsmError::new(no, format!("unknown dependency in `{d}`")));
                        }
                    }
                    b.begin_block_named_deps(name, &deps);
                }
            } else {
                return Err(AsmError::new(no, format!("bad block spec `{spec}`")));
            }
            Ok(())
        }
        b"endblock" => {
            b.end_block();
            Ok(())
        }
        b"step" => {
            let arg = text(cur.word());
            if arg.is_empty() {
                return Err(AsmError::new(no, ".step requires an argument"));
            }
            if arg.eq_ignore_ascii_case("none") {
                b.set_step(None);
            } else {
                let s = parse_uint(arg.as_bytes(), u32::MAX)
                    .ok_or_else(|| AsmError::new(no, format!("bad step `{arg}`")))?;
                b.set_step(Some(StepId(s)));
            }
            Ok(())
        }
        b"" => Err(AsmError::new(no, "empty directive")),
        other => Err(AsmError::new(
            no,
            format!("unknown directive `.{}`", text(other)),
        )),
    }
}

fn instruction(
    b: &mut ProgramBuilder,
    head: &[u8],
    cur: &mut Cursor<'_>,
    no: usize,
) -> Result<(), AsmError> {
    // A line starting with an integer is a quantum instruction.
    if let Some(timing) = parse_uint(head, u32::MAX) {
        if timing > crate::MAX_TIMING {
            return Err(AsmError::new(
                no,
                format!(
                    "timing label {timing} exceeds {} (use QWAIT)",
                    crate::MAX_TIMING
                ),
            ));
        }
        let mnem = cur.word();
        let op = quantum_op(mnem, &cur.operands(), no)?;
        b.push(Instruction::quantum(timing, op));
        return Ok(());
    }
    classical(b, head, &cur.operands(), no)
}

/// `digits` read as `str::parse` reads an unsigned integer: one or more
/// ASCII digits, with no sign. `None` past `u32::MAX`.
fn parse_digits(digits: &[u8]) -> Option<u32> {
    if digits.is_empty() {
        return None;
    }
    let mut n = 0u32;
    for &d in digits {
        let d = d.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n = n.checked_mul(10)?.checked_add(u32::from(d))?;
    }
    Some(n)
}

/// `tok` read as `str::parse` reads an unsigned integer type whose
/// maximum is `max`: an optional `+`, then digits.
fn parse_uint(tok: &[u8], max: u32) -> Option<u32> {
    parse_digits(tok.strip_prefix(b"+").unwrap_or(tok)).filter(|&n| n <= max)
}

/// Longest mnemonic the assembler knows (`MEASURE`), rounded up: a
/// longer head matches none, so uppercasing one never needs the heap.
const MNEMONIC_CAP: usize = 8;

/// `head` uppercased into `buf`, or `b""` (which no mnemonic equals) when
/// it is longer than any mnemonic.
fn uppercase<'b>(head: &[u8], buf: &'b mut [u8; MNEMONIC_CAP]) -> &'b [u8] {
    let Some(dst) = buf.get_mut(..head.len()) else {
        return b"";
    };
    for (d, s) in dst.iter_mut().zip(head) {
        *d = s.to_ascii_uppercase();
    }
    dst
}

/// Most operands any instruction takes (`MRCE`).
const MAX_OPERANDS: usize = 4;

/// The non-empty, trimmed, comma-separated operands of an instruction,
/// held inline. `len` counts every operand, including any past
/// [`MAX_OPERANDS`], so an arity error reports the true count.
struct Operands<'a> {
    slots: [&'a [u8]; MAX_OPERANDS],
    len: usize,
}

impl<'a> Operands<'a> {
    fn push(&mut self, op: &'a [u8]) {
        if let Some(slot) = self.slots.get_mut(self.len) {
            *slot = op;
        }
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len
    }
}

impl<'a> std::ops::Index<usize> for Operands<'a> {
    type Output = &'a [u8];

    fn index(&self, i: usize) -> &&'a [u8] {
        &self.slots[..self.len.min(MAX_OPERANDS)][i]
    }
}

/// The index after a one-letter, either-case `prefix`, when it fits
/// `max`.
fn prefixed_index(tok: &[u8], prefix: u8, max: u32) -> Option<u32> {
    match tok {
        [first, index @ ..] if first.to_ascii_lowercase() == prefix => parse_uint(index, max),
        _ => None,
    }
}

fn parse_qubit(tok: &[u8], no: usize) -> Result<Qubit, AsmError> {
    prefixed_index(tok, b'q', u16::MAX.into())
        .map(|idx| Qubit::new(idx as u16))
        .ok_or_else(|| AsmError::new(no, format!("expected qubit operand, got `{}`", text(tok))))
}

fn parse_reg(tok: &[u8], no: usize) -> Result<Reg, AsmError> {
    prefixed_index(tok, b'r', u8::MAX.into())
        .filter(|&n| (n as usize) < crate::REG_COUNT)
        .map(|idx| Reg::new(idx as u8))
        .ok_or_else(|| {
            AsmError::new(
                no,
                format!("expected register operand, got `{}`", text(tok)),
            )
        })
}

fn parse_sreg(tok: &[u8], no: usize) -> Result<SharedReg, AsmError> {
    prefixed_index(tok, b's', u8::MAX.into())
        .filter(|&n| (n as usize) < crate::SHARED_REG_COUNT)
        .map(|idx| SharedReg::new(idx as u8))
        .ok_or_else(|| AsmError::new(no, format!("expected shared register, got `{}`", text(tok))))
}

/// `tok` read as `str::parse::<i16>` reads it: an optional `+` or `-`,
/// then digits.
fn parse_imm(tok: &[u8], no: usize) -> Result<i16, AsmError> {
    let value = match tok {
        [b'-', digits @ ..] => parse_digits(digits).map(|n| -i64::from(n)),
        [b'+', digits @ ..] => parse_digits(digits).map(i64::from),
        digits => parse_digits(digits).map(i64::from),
    };
    value
        .and_then(|n| i16::try_from(n).ok())
        .ok_or_else(|| AsmError::new(no, format!("bad immediate `{}`", text(tok))))
}

fn quantum_op(mnem: &[u8], ops: &Operands<'_>, no: usize) -> Result<QuantumOp, AsmError> {
    // Rotations: RX[k] / RY[k] / RZ[k]. The index is read from the text
    // as written (case does not touch digits), so it may be any length.
    let rotation: Option<fn(Angle) -> Gate1> = match mnem {
        [r, axis, b'[', ..] if r.eq_ignore_ascii_case(&b'r') => match axis.to_ascii_uppercase() {
            b'X' => Some(Gate1::Rx),
            b'Y' => Some(Gate1::Ry),
            b'Z' => Some(Gate1::Rz),
            _ => None,
        },
        _ => None,
    };
    if let Some(rotation) = rotation {
        let k = mnem[3..]
            .strip_suffix(b"]")
            .and_then(|n| parse_uint(n, u8::MAX.into()))
            .ok_or_else(|| AsmError::new(no, format!("bad rotation index in `{}`", text(mnem))))?;
        if k >= u32::from(Angle::STEPS) {
            return Err(AsmError::new(
                no,
                format!("rotation index {k} out of range"),
            ));
        }
        let q = single_operand(ops, no)?;
        return Ok(QuantumOp::Gate1(
            rotation(Angle::new(k as u8)),
            parse_qubit(q, no)?,
        ));
    }

    let mut buf = [0; MNEMONIC_CAP];
    let mnem_upper = uppercase(mnem, &mut buf);
    let gate1 = match mnem_upper {
        b"I" => Some(Gate1::I),
        b"X" => Some(Gate1::X),
        b"Y" => Some(Gate1::Y),
        b"Z" => Some(Gate1::Z),
        b"H" => Some(Gate1::H),
        b"S" => Some(Gate1::S),
        b"SDG" => Some(Gate1::Sdg),
        b"T" => Some(Gate1::T),
        b"TDG" => Some(Gate1::Tdg),
        b"X90" => Some(Gate1::X90),
        b"XM90" => Some(Gate1::Xm90),
        b"Y90" => Some(Gate1::Y90),
        b"YM90" => Some(Gate1::Ym90),
        b"RESET" => Some(Gate1::Reset),
        _ => None,
    };
    if let Some(g) = gate1 {
        let q = single_operand(ops, no)?;
        return Ok(QuantumOp::Gate1(g, parse_qubit(q, no)?));
    }

    let gate2 = match mnem_upper {
        b"CNOT" => Some(Gate2::Cnot),
        b"CZ" => Some(Gate2::Cz),
        b"SWAP" => Some(Gate2::Swap),
        _ => None,
    };
    if let Some(g) = gate2 {
        if ops.len() != 2 {
            return Err(AsmError::new(
                no,
                format!("{} requires two qubit operands", text(mnem)),
            ));
        }
        return Ok(QuantumOp::Gate2(
            g,
            parse_qubit(ops[0], no)?,
            parse_qubit(ops[1], no)?,
        ));
    }

    if mnem_upper == b"MEAS" || mnem_upper == b"MEASURE" {
        let q = single_operand(ops, no)?;
        return Ok(QuantumOp::Measure(parse_qubit(q, no)?));
    }

    Err(AsmError::new(
        no,
        format!("unknown quantum mnemonic `{}`", text(mnem)),
    ))
}

fn single_operand<'a>(ops: &Operands<'a>, no: usize) -> Result<&'a [u8], AsmError> {
    if ops.len() == 1 {
        Ok(ops[0])
    } else {
        Err(AsmError::new(
            no,
            format!("expected one operand, got {}", ops.len()),
        ))
    }
}

fn parse_cond(tok: &[u8], no: usize) -> Result<Cond, AsmError> {
    Cond::ALL
        .into_iter()
        .find(|c| c.mnemonic().as_bytes().eq_ignore_ascii_case(tok))
        .ok_or_else(|| AsmError::new(no, format!("unknown condition `{}`", text(tok))))
}

fn parse_condop(tok: &[u8], no: usize) -> Result<CondOp, AsmError> {
    CondOp::ALL
        .into_iter()
        .find(|c| c.mnemonic().as_bytes().eq_ignore_ascii_case(tok))
        .ok_or_else(|| AsmError::new(no, format!("unknown conditional op `{}`", text(tok))))
}

/// Either a numeric address or a label reference.
fn parse_target(
    b: &mut ProgramBuilder,
    tok: &[u8],
    cond: Option<Cond>,
    call: bool,
    no: usize,
) -> Result<(), AsmError> {
    if let Some(addr) = parse_uint(tok, u32::MAX) {
        let op = match (cond, call) {
            (Some(c), _) => ClassicalOp::Br {
                cond: c,
                target: addr,
            },
            (None, true) => ClassicalOp::Call { target: addr },
            (None, false) => ClassicalOp::Jmp { target: addr },
        };
        b.push(op);
        Ok(())
    } else if is_identifier(tok) {
        let label = text(tok);
        match (cond, call) {
            (Some(c), _) => b.br_to(c, label),
            (None, true) => b.call_to(label),
            (None, false) => b.jmp_to(label),
        };
        Ok(())
    } else {
        Err(AsmError::new(
            no,
            format!("bad control-transfer target `{}`", text(tok)),
        ))
    }
}

fn classical(
    b: &mut ProgramBuilder,
    head: &[u8],
    ops: &Operands<'_>,
    no: usize,
) -> Result<(), AsmError> {
    let mut buf = [0; MNEMONIC_CAP];
    let mnem = uppercase(head, &mut buf);
    let wrong_arity = |n: usize| {
        AsmError::new(
            no,
            format!("{} expects {n} operand(s), got {}", text(mnem), ops.len()),
        )
    };
    match mnem {
        b"NOP" => {
            b.push(ClassicalOp::Nop);
        }
        b"STOP" => {
            b.push(ClassicalOp::Stop);
        }
        b"HALT" => {
            b.push(ClassicalOp::Halt);
        }
        b"RET" => {
            b.push(ClassicalOp::Ret);
        }
        b"JMP" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            parse_target(b, ops[0], None, false, no)?;
        }
        b"CALL" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            parse_target(b, ops[0], None, true, no)?;
        }
        b"BR" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            let cond = parse_cond(ops[0], no)?;
            parse_target(b, ops[1], Some(cond), false, no)?;
        }
        b"LDI" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Ldi {
                rd: parse_reg(ops[0], no)?,
                imm: parse_imm(ops[1], no)?,
            });
        }
        b"MOV" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Mov {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        b"ADD" | b"SUB" | b"AND" | b"OR" | b"XOR" => {
            if ops.len() != 3 {
                return Err(wrong_arity(3));
            }
            let rd = parse_reg(ops[0], no)?;
            let rs1 = parse_reg(ops[1], no)?;
            let rs2 = parse_reg(ops[2], no)?;
            b.push(match mnem {
                b"ADD" => ClassicalOp::Add { rd, rs1, rs2 },
                b"SUB" => ClassicalOp::Sub { rd, rs1, rs2 },
                b"AND" => ClassicalOp::And { rd, rs1, rs2 },
                b"OR" => ClassicalOp::Or { rd, rs1, rs2 },
                _ => ClassicalOp::Xor { rd, rs1, rs2 },
            });
        }
        b"ADDI" => {
            if ops.len() != 3 {
                return Err(wrong_arity(3));
            }
            b.push(ClassicalOp::Addi {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
                imm: parse_imm(ops[2], no)?,
            });
        }
        b"NOT" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Not {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        b"CMP" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Cmp {
                rs1: parse_reg(ops[0], no)?,
                rs2: parse_reg(ops[1], no)?,
            });
        }
        b"CMPI" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Cmpi {
                rs: parse_reg(ops[0], no)?,
                imm: parse_imm(ops[1], no)?,
            });
        }
        b"FMR" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Fmr {
                rd: parse_reg(ops[0], no)?,
                qubit: parse_qubit(ops[1], no)?,
            });
        }
        b"QWAIT" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            let cycles = parse_uint(ops[0], u32::MAX).ok_or_else(|| {
                AsmError::new(no, format!("bad QWAIT operand `{}`", text(ops[0])))
            })?;
            b.push(ClassicalOp::Qwait {
                cycles: Cycles::new(cycles),
            });
        }
        b"LDS" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Lds {
                rd: parse_reg(ops[0], no)?,
                sreg: parse_sreg(ops[1], no)?,
            });
        }
        b"STS" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Sts {
                sreg: parse_sreg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        b"MRCE" => {
            if ops.len() != 4 {
                return Err(wrong_arity(4));
            }
            b.push(ClassicalOp::Mrce {
                qubit: parse_qubit(ops[0], no)?,
                target: parse_qubit(ops[1], no)?,
                op_if_one: parse_condop(ops[2], no)?,
                op_if_zero: parse_condop(ops[3], no)?,
            });
        }
        _ => {
            return Err(AsmError::new(
                no,
                format!("unknown mnemonic `{}`", text(head).to_ascii_uppercase()),
            ))
        }
    }
    Ok(())
}

/// Lexically scans timed-QASM text for the number of qubits it touches —
/// one past the highest `q<digits>` operand token — **without**
/// assembling it. A capability-aware placement layer uses this to match
/// a wire-format request against per-shard qubit capacities before
/// paying for a parse (requests are only assembled on compile-cache
/// misses, and the scan must not change that). The router runs it on
/// every text request, cache hits included, so it is one pass over the
/// bytes that allocates nothing and skips a `u64` word at a time to the
/// next byte that can start a token or a comment.
///
/// The scan is a heuristic twin of [`Program::num_qubits`] — both reduce
/// their qubit references with the one audited counting rule,
/// [`qubit_span`](crate::qubit_span). A token counts when `q` or `Q`
/// starts at a word boundary (not after a letter, digit or `_`), is
/// followed by one optional `+` and then digits only up to the next byte
/// that is not a letter, digit or `_`, lies before any `#` or `;` on its
/// line, and its digits fit a `u16` (longer ones are skipped, never
/// overflowed). On text produced by [`Program`]'s display (the
/// round-trip format every generator in this workspace emits) it is
/// exact; on hand-written text a `q`-prefixed label could over-count,
/// which errs toward *rejecting* a shard, never toward a silent
/// capacity overrun.
///
/// ```
/// use quape_isa::scan_qubit_count;
/// assert_eq!(scan_qubit_count("0 H q0\n1 CNOT q0, q3\nSTOP\n"), 4);
/// assert_eq!(scan_qubit_count("STOP\n"), 0);
/// ```
pub fn scan_qubit_count(source: &str) -> u16 {
    let bytes = source.as_bytes();
    let mut i = 0;
    crate::qubit_span(std::iter::from_fn(|| loop {
        i = next_scan_candidate(bytes, i);
        match *bytes.get(i)? {
            // A comment runs to the end of its line.
            b'#' | b';' => {
                i += bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .unwrap_or(bytes.len() - i);
            }
            _ if i > 0 && is_ident_byte(bytes[i - 1]) => i += 1,
            _ => {
                // One optional `+` before the digits, as `parse_uint` reads.
                let start = i + 1 + usize::from(bytes.get(i + 1) == Some(&b'+'));
                i = start;
                // Saturates one past `u16::MAX`, so a 40-digit token
                // neither overflows nor counts.
                let mut index = 0u32;
                while let Some(d) = bytes.get(i).filter(|b| b.is_ascii_digit()) {
                    index = (index * 10 + u32::from(d - b'0')).min(1 << 16);
                    i += 1;
                }
                let terminated = bytes.get(i).is_none_or(|&b| !is_ident_byte(b));
                if i > start && terminated {
                    if let Ok(index) = u16::try_from(index) {
                        return Some(index);
                    }
                }
            }
        }
    }))
}

/// `0x0101…01`: one in every byte of a word.
const BYTE_ONES: u64 = u64::from_le_bytes([1; 8]);

/// The lowest byte of `word` that is zero has its high bit set in the
/// result, and no byte below it does. (Bytes above a zero byte may be
/// flagged falsely; only the lowest flag is read.)
fn zero_bytes(word: u64) -> u64 {
    word.wrapping_sub(BYTE_ONES) & !word & (BYTE_ONES << 7)
}

/// The first index from `i` on whose byte can start a scan token or a
/// comment — `q`, `Q`, `#` or `;` — or `bytes.len()`. Whole 8-byte words
/// without such a byte are skipped at once.
fn next_scan_candidate(bytes: &[u8], mut i: usize) -> usize {
    let splat = |b: u8| BYTE_ONES * u64::from(b);
    while let Some(chunk) = bytes.get(i..).and_then(<[u8]>::first_chunk::<8>) {
        let word = u64::from_le_bytes(*chunk);
        // `q` and `Q` differ only in the 0x20 bit.
        let hits = zero_bytes((word | splat(0x20)) ^ splat(b'q'))
            | zero_bytes(word ^ splat(b'#'))
            | zero_bytes(word ^ splat(b';'));
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    bytes[i..]
        .iter()
        .position(|b| matches!(b, b'q' | b'Q' | b'#' | b';'))
        .map_or(bytes.len(), |at| i + at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Dependency;

    #[test]
    fn paper_listing_parses() {
        // The exact three-line example from §2.2 of the paper.
        let p = assemble("0 H q0\n0 H q1\n1 CNOT q0, q1\n").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.instruction(2).to_string(), "1 CNOT q0, q1");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("# heading\n\n0 X q0   ; trailing\n   \nHALT\n").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn labels_forward_and_backward() {
        let p = assemble("top:\n0 X q0\nBR NE, top\nJMP end\nNOP\nend: HALT\n").unwrap();
        match p.instruction(1) {
            Instruction::Classical(ClassicalOp::Br { target, .. }) => assert_eq!(*target, 0),
            other => panic!("unexpected {other}"),
        }
        match p.instruction(2) {
            Instruction::Classical(ClassicalOp::Jmp { target }) => assert_eq!(*target, 4),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn blocks_with_priorities_and_deps() {
        let src = "\
.block w1 prio=0
0 H q0
STOP
.endblock
.block w2 prio=0
0 H q1
STOP
.endblock
.block w3 prio=1
0 CNOT q0, q1
STOP
.endblock
";
        let p = assemble(src).unwrap();
        assert_eq!(p.blocks().len(), 3);
        assert_eq!(
            p.blocks().get(crate::BlockId(2)).unwrap().dependency,
            Dependency::Priority(1)
        );
    }

    #[test]
    fn direct_deps_resolve_by_name() {
        let src = "\
.block w1 deps=none
0 H q0
.endblock
.block w2 deps=w1
0 H q1
.endblock
";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.blocks().get(crate::BlockId(1)).unwrap().dependency,
            Dependency::Direct(vec![crate::BlockId(0)])
        );
    }

    #[test]
    fn step_directive_tags_instructions() {
        let p = assemble(".step 0\n0 H q0\n.step 1\n0 H q1\n.step none\nHALT\n").unwrap();
        assert_eq!(p.step_of(0), Some(StepId(0)));
        assert_eq!(p.step_of(1), Some(StepId(1)));
        assert_eq!(p.step_of(2), None);
    }

    #[test]
    fn mrce_parses() {
        let p = assemble("MRCE q0, q1, X, NONE\n").unwrap();
        match p.instruction(0) {
            Instruction::Classical(ClassicalOp::Mrce {
                op_if_one,
                op_if_zero,
                ..
            }) => {
                assert_eq!(*op_if_one, CondOp::X);
                assert_eq!(*op_if_zero, CondOp::None);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rotation_indices_parse() {
        let p = assemble("0 RX[8] q0\n1 RZ[31] q1\n").unwrap();
        assert_eq!(p.instruction(0).to_string(), "0 RX[8] q0");
        assert_eq!(p.instruction(1).to_string(), "1 RZ[31] q1");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("0 X q0\nBOGUS r1\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = assemble("0 FLIP q0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("FLIP"));
    }

    #[test]
    fn timing_too_large_is_rejected_with_hint() {
        let err = assemble("200 X q0\n").unwrap_err();
        assert!(err.message.contains("QWAIT"));
    }

    #[test]
    fn wrong_arity_reported() {
        let err = assemble("MOV r1\n").unwrap_err();
        assert!(err.message.contains("expects 2"));
        let err = assemble("0 CNOT q0\n").unwrap_err();
        assert!(err.message.contains("two qubit operands"));
    }

    #[test]
    fn arity_errors_count_every_operand() {
        // More operands than any instruction takes: the count is still
        // the true one, not a capped one.
        let err = assemble("MOV r1, r2, r3, r4, r5\n").unwrap_err();
        assert_eq!(err.message, "MOV expects 2 operand(s), got 5");
        let err = assemble("mrce q0, q1, X, NONE, X\n").unwrap_err();
        assert_eq!(err.message, "MRCE expects 4 operand(s), got 5");
        let err = assemble("0 H q0, q1, q2, q3, q4\n").unwrap_err();
        assert_eq!(err.message, "expected one operand, got 5");
        let err = assemble("0 cnot q0, q1, q2, q3, q4\n").unwrap_err();
        assert_eq!(err.message, "cnot requires two qubit operands");
        // Empty operands between commas are skipped, as before.
        assert!(assemble("MOV r1,, r2\n").is_ok());
    }

    #[test]
    fn mnemonics_are_case_insensitive_and_errors_keep_their_text() {
        let p = assemble("0 rx[8] Q0\n0 measure q1\nfmr R0, q1\nqwait 300\nstop\n").unwrap();
        assert_eq!(
            p.to_string(),
            "    0 RX[8] q0\n    0 MEAS q1\n    FMR r0, q1\n    QWAIT 300\n    STOP\n"
        );
        let err = assemble("frobnicated r1\n").unwrap_err();
        assert_eq!(err.message, "unknown mnemonic `FROBNICATED`");
        let err = assemble("0 teleportation q0\n").unwrap_err();
        assert_eq!(err.message, "unknown quantum mnemonic `teleportation`");
        let err = assemble("0 rx[32] q0\n").unwrap_err();
        assert_eq!(err.message, "rotation index 32 out of range");
        let err = assemble("0 Ry[x] q0\n").unwrap_err();
        assert_eq!(err.message, "bad rotation index in `Ry[x]`");
        // Leading zeros in a rotation index parse as before.
        assert_eq!(
            assemble("0 RZ[0000000007] q0\n")
                .unwrap()
                .instruction(0)
                .to_string(),
            "0 RZ[7] q0"
        );
    }

    #[test]
    fn scan_skips_comments_and_reads_either_case() {
        assert_eq!(scan_qubit_count("0 H q0 # q9\n"), 1);
        assert_eq!(scan_qubit_count("0 H q1 ; q7\n"), 2);
        assert_eq!(scan_qubit_count("# q9\n; q8\n0 H q2\n"), 3);
        assert_eq!(scan_qubit_count("0 H Q5\n"), 6);
        assert_eq!(scan_qubit_count("1 CNOT Q2, q3\n"), 4);
        // A comment ends at its line: the next line counts.
        assert_eq!(scan_qubit_count("0 H q0 # q9\n0 H q4\n"), 5);
    }

    #[test]
    fn scan_counts_only_whole_q_tokens() {
        for text in [
            "0 H _q1\n",
            "0 H xq1\n",
            "0 H q1x\n",
            "0 H q\n",
            "0 H q_1\n",
            "0 H q+\n",
            "0 H q++9\n",
            "0 H xq+9\n",
        ] {
            assert_eq!(scan_qubit_count(text), 0, "{text:?}");
        }
        assert_eq!(scan_qubit_count("0 H q1x, q2\n"), 3);
        assert_eq!(scan_qubit_count("q1q2\n"), 0);
        assert_eq!(scan_qubit_count("(q3)\n"), 4);
        assert_eq!(scan_qubit_count("0 H q0007\n"), 8);
        // One `+` may sign the index, as the assembler reads it.
        assert_eq!(scan_qubit_count("0 H q+9\n"), 10);
        assert_eq!(scan_qubit_count("0 H Q+2, q+\n"), 3);
        assert_eq!(scan_qubit_count(""), 0);
        assert_eq!(scan_qubit_count("\n\n"), 0);
    }

    #[test]
    fn scan_saturates_and_ignores_oversized_indices() {
        // The counting rule saturates at u16::MAX.
        assert_eq!(scan_qubit_count("0 H q65535\n"), 65535);
        assert_eq!(scan_qubit_count("0 H q65534\n"), 65535);
        // Tokens beyond u16 do not count, and do not overflow.
        assert_eq!(scan_qubit_count("0 H q65536\n"), 0);
        let forty = format!("0 H q{}\n", "9".repeat(40));
        assert_eq!(scan_qubit_count(&forty), 0);
        let forty_with_small = format!("0 H q{}, q3\n", "1".repeat(40));
        assert_eq!(scan_qubit_count(&forty_with_small), 4);
        // Leading zeros never overflow either.
        let zeros = format!("0 H q{}5\n", "0".repeat(40));
        assert_eq!(scan_qubit_count(&zeros), 6);
    }

    #[test]
    fn scan_reads_crlf_and_tabs() {
        assert_eq!(scan_qubit_count("0 H q3\r\n1 MEAS q1\r\n"), 4);
        assert_eq!(scan_qubit_count("0\tH\tq2\n1\tCNOT\tq0,\tq6\n"), 7);
        assert_eq!(scan_qubit_count("0 H q1 # c\r\n0 H q4\r\n"), 5);
        // A lone carriage return separates tokens but not lines.
        assert_eq!(scan_qubit_count("0 H q2\rq5\n"), 6);
        assert_eq!(scan_qubit_count("# c\rq5\n0 H q1\n"), 2);
    }

    #[test]
    fn nested_block_is_an_error_on_its_line() {
        let err = assemble(".block a prio=0\n0 H q0\n.block b prio=1\n0 H q1\n.endblock\nSTOP\n")
            .unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.message, "nested `.block`: block `a` is still open");
        // Closed blocks in sequence stay fine.
        assert!(
            assemble(".block a prio=0\n0 H q0\n.endblock\n.block b prio=1\nSTOP\n.endblock\n")
                .is_ok()
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let err = assemble("a:\n0 H q0\na:\n0 X q0\nBR EQ, a\nSTOP\n").unwrap_err();
        assert_eq!(err.message, "duplicate label `a`");
        // A label defined once and referenced twice is fine.
        assert!(assemble("a:\n0 H q0\nBR EQ, a\nJMP a\nSTOP\n").is_ok());
    }

    #[test]
    fn unknown_dependency_reported() {
        let err = assemble(".block w2 deps=w1\n0 H q0\n.endblock\n").unwrap_err();
        assert!(err.message.contains("unknown dependency"));
    }
}
