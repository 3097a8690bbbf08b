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
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending line number for syntax
/// errors, unknown mnemonics, malformed operands, undefined labels, or
/// invalid block structure.
///
/// ```
/// use quape_isa::assemble;
/// let p = assemble("0 X q0\n1 MEAS q0\nSTOP\n")?;
/// assert_eq!(p.len(), 3);
/// # Ok::<(), quape_isa::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        parse_line(&mut b, line, line_no)?;
    }
    b.finish().map_err(AsmError::from)
}

fn strip_comment(line: &str) -> &str {
    let cut = line.find(['#', ';']).unwrap_or(line.len());
    &line[..cut]
}

/// Lexically scans timed-QASM text for the number of qubits it touches —
/// one past the highest `q<digits>` operand token — **without**
/// assembling it. A capability-aware placement layer uses this to match
/// a wire-format request against per-shard qubit capacities before
/// paying for a parse (requests are only assembled on compile-cache
/// misses, and the scan must not change that). The router runs it on
/// every text request, cache hits included, so it is one pass over the
/// bytes that allocates nothing.
///
/// The scan is a heuristic twin of [`Program::num_qubits`] — both reduce
/// their qubit references with the one audited counting rule,
/// [`qubit_span`](crate::qubit_span). A token counts when `q` or `Q`
/// starts at a word boundary (not after a letter, digit or `_`), is
/// followed by digits only up to the next byte that is not a letter,
/// digit or `_`, lies before any `#` or `;` on its line, and its digits
/// fit a `u16` (longer ones are skipped, never overflowed). On text
/// produced by [`Program`]'s display (the round-trip format every
/// generator in this workspace emits) it is exact; on hand-written text
/// a `q`-prefixed label could over-count, which errs toward *rejecting*
/// a shard, never toward a silent capacity overrun.
///
/// ```
/// use quape_isa::scan_qubit_count;
/// assert_eq!(scan_qubit_count("0 H q0\n1 CNOT q0, q3\nSTOP\n"), 4);
/// assert_eq!(scan_qubit_count("STOP\n"), 0);
/// ```
pub fn scan_qubit_count(source: &str) -> u16 {
    let bytes = source.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut i = 0;
    crate::qubit_span(std::iter::from_fn(|| {
        while i < bytes.len() {
            match bytes[i] {
                // A comment runs to the end of its line.
                b'#' | b';' => {
                    i += bytes[i..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .unwrap_or(bytes.len() - i);
                }
                b'q' | b'Q' if i == 0 || !word(bytes[i - 1]) => {
                    let start = i + 1;
                    i = start;
                    // Saturates one past `u16::MAX`, so a 40-digit token
                    // neither overflows nor counts.
                    let mut index = 0u32;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        index = (index * 10 + u32::from(bytes[i] - b'0')).min(1 << 16);
                        i += 1;
                    }
                    let terminated = i == bytes.len() || !word(bytes[i]);
                    if i > start && terminated {
                        if let Ok(index) = u16::try_from(index) {
                            return Some(index);
                        }
                    }
                }
                _ => i += 1,
            }
        }
        None
    }))
}

fn parse_line(b: &mut ProgramBuilder, line: &str, no: usize) -> Result<(), AsmError> {
    if let Some(rest) = line.strip_prefix('.') {
        return parse_directive(b, rest, no);
    }
    // `label:` optionally followed by an instruction.
    if let Some(colon) = line.find(':') {
        let (name, rest) = line.split_at(colon);
        if is_identifier(name) {
            b.label(name);
            let rest = rest[1..].trim();
            if rest.is_empty() {
                return Ok(());
            }
            return parse_instruction(b, rest, no);
        }
    }
    parse_instruction(b, line, no)
}

fn is_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_directive(b: &mut ProgramBuilder, rest: &str, no: usize) -> Result<(), AsmError> {
    let mut parts = rest.split_whitespace();
    match parts.next() {
        Some("block") => {
            let name = parts
                .next()
                .ok_or_else(|| AsmError::new(no, ".block requires a name"))?
                .to_string();
            let spec = parts.next().unwrap_or("deps=none");
            if let Some(p) = spec.strip_prefix("prio=") {
                let prio: u16 = p
                    .parse()
                    .map_err(|_| AsmError::new(no, format!("bad priority `{p}`")))?;
                b.begin_block(name, crate::Dependency::Priority(prio));
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
        Some("endblock") => {
            b.end_block();
            Ok(())
        }
        Some("step") => {
            let arg = parts
                .next()
                .ok_or_else(|| AsmError::new(no, ".step requires an argument"))?;
            if arg.eq_ignore_ascii_case("none") {
                b.set_step(None);
            } else {
                let s: u32 = arg
                    .parse()
                    .map_err(|_| AsmError::new(no, format!("bad step `{arg}`")))?;
                b.set_step(Some(StepId(s)));
            }
            Ok(())
        }
        Some(other) => Err(AsmError::new(no, format!("unknown directive `.{other}`"))),
        None => Err(AsmError::new(no, "empty directive")),
    }
}

fn parse_instruction(b: &mut ProgramBuilder, line: &str, no: usize) -> Result<(), AsmError> {
    let (head, rest) = split_head(line);
    // A line starting with an integer is a quantum instruction.
    if let Ok(timing) = head.parse::<u32>() {
        if timing > crate::MAX_TIMING {
            return Err(AsmError::new(
                no,
                format!(
                    "timing label {timing} exceeds {} (use QWAIT)",
                    crate::MAX_TIMING
                ),
            ));
        }
        let op = parse_quantum_op(rest.trim(), no)?;
        b.push(Instruction::quantum(timing, op));
        return Ok(());
    }
    parse_classical(b, head, rest.trim(), no)
}

fn split_head(line: &str) -> (&str, &str) {
    match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], &line[i..]),
        None => (line, ""),
    }
}

/// Longest mnemonic the assembler knows (`MEASURE`), rounded up: a
/// longer head matches none, so uppercasing one never needs the heap.
const MNEMONIC_CAP: usize = 8;

/// `head` uppercased into `buf`, or `""` (which no mnemonic equals) when
/// it is longer than any mnemonic.
fn uppercase<'b>(head: &str, buf: &'b mut [u8; MNEMONIC_CAP]) -> &'b str {
    let Some(dst) = buf.get_mut(..head.len()) else {
        return "";
    };
    dst.copy_from_slice(head.as_bytes());
    dst.make_ascii_uppercase();
    // ASCII case mapping keeps UTF-8 valid, so this never falls back.
    std::str::from_utf8(dst).unwrap_or("")
}

/// Most operands any instruction takes (`MRCE`).
const MAX_OPERANDS: usize = 4;

/// The non-empty, trimmed, comma-separated operands of an instruction,
/// held inline. `len` counts every operand, including any past
/// [`MAX_OPERANDS`], so an arity error reports the true count.
struct Operands<'a> {
    slots: [&'a str; MAX_OPERANDS],
    len: usize,
}

impl<'a> Operands<'a> {
    fn parse(rest: &'a str) -> Self {
        let mut ops = Operands {
            slots: [""; MAX_OPERANDS],
            len: 0,
        };
        for tok in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(slot) = ops.slots.get_mut(ops.len) {
                *slot = tok;
            }
            ops.len += 1;
        }
        ops
    }

    fn len(&self) -> usize {
        self.len
    }
}

impl<'a> std::ops::Index<usize> for Operands<'a> {
    type Output = &'a str;

    fn index(&self, i: usize) -> &&'a str {
        &self.slots[..self.len.min(MAX_OPERANDS)][i]
    }
}

fn parse_qubit(tok: &str, no: usize) -> Result<Qubit, AsmError> {
    let idx = tok
        .strip_prefix(['q', 'Q'])
        .and_then(|n| n.parse::<u16>().ok())
        .ok_or_else(|| AsmError::new(no, format!("expected qubit operand, got `{tok}`")))?;
    Ok(Qubit::new(idx))
}

fn parse_reg(tok: &str, no: usize) -> Result<Reg, AsmError> {
    let idx = tok
        .strip_prefix(['r', 'R'])
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| (n as usize) < crate::REG_COUNT)
        .ok_or_else(|| AsmError::new(no, format!("expected register operand, got `{tok}`")))?;
    Ok(Reg::new(idx))
}

fn parse_sreg(tok: &str, no: usize) -> Result<SharedReg, AsmError> {
    let idx = tok
        .strip_prefix(['s', 'S'])
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| (n as usize) < crate::SHARED_REG_COUNT)
        .ok_or_else(|| AsmError::new(no, format!("expected shared register, got `{tok}`")))?;
    Ok(SharedReg::new(idx))
}

fn parse_imm(tok: &str, no: usize) -> Result<i16, AsmError> {
    tok.parse::<i16>()
        .map_err(|_| AsmError::new(no, format!("bad immediate `{tok}`")))
}

fn parse_quantum_op(rest: &str, no: usize) -> Result<QuantumOp, AsmError> {
    let (mnem, ops_text) = split_head(rest);
    let ops = Operands::parse(ops_text);

    // Rotations: RX[k] / RY[k] / RZ[k]. The index is read from the text
    // as written (case does not touch digits), so it may be any length.
    let rotation: Option<fn(Angle) -> Gate1> = match mnem.as_bytes() {
        [r, axis, b'[', ..] if r.eq_ignore_ascii_case(&b'r') => match axis.to_ascii_uppercase() {
            b'X' => Some(Gate1::Rx),
            b'Y' => Some(Gate1::Ry),
            b'Z' => Some(Gate1::Rz),
            _ => None,
        },
        _ => None,
    };
    if let Some(rotation) = rotation {
        // The first three bytes are ASCII, so byte 3 starts a char.
        let k: u8 = mnem[3..]
            .strip_suffix(']')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| AsmError::new(no, format!("bad rotation index in `{mnem}`")))?;
        if k >= Angle::STEPS {
            return Err(AsmError::new(
                no,
                format!("rotation index {k} out of range"),
            ));
        }
        let q = single_operand(&ops, no)?;
        return Ok(QuantumOp::Gate1(
            rotation(Angle::new(k)),
            parse_qubit(q, no)?,
        ));
    }

    let mut buf = [0; MNEMONIC_CAP];
    let mnem_upper = uppercase(mnem, &mut buf);
    let gate1 = match mnem_upper {
        "I" => Some(Gate1::I),
        "X" => Some(Gate1::X),
        "Y" => Some(Gate1::Y),
        "Z" => Some(Gate1::Z),
        "H" => Some(Gate1::H),
        "S" => Some(Gate1::S),
        "SDG" => Some(Gate1::Sdg),
        "T" => Some(Gate1::T),
        "TDG" => Some(Gate1::Tdg),
        "X90" => Some(Gate1::X90),
        "XM90" => Some(Gate1::Xm90),
        "Y90" => Some(Gate1::Y90),
        "YM90" => Some(Gate1::Ym90),
        "RESET" => Some(Gate1::Reset),
        _ => None,
    };
    if let Some(g) = gate1 {
        let q = single_operand(&ops, no)?;
        return Ok(QuantumOp::Gate1(g, parse_qubit(q, no)?));
    }

    let gate2 = match mnem_upper {
        "CNOT" => Some(Gate2::Cnot),
        "CZ" => Some(Gate2::Cz),
        "SWAP" => Some(Gate2::Swap),
        _ => None,
    };
    if let Some(g) = gate2 {
        if ops.len() != 2 {
            return Err(AsmError::new(
                no,
                format!("{mnem} requires two qubit operands"),
            ));
        }
        return Ok(QuantumOp::Gate2(
            g,
            parse_qubit(ops[0], no)?,
            parse_qubit(ops[1], no)?,
        ));
    }

    if mnem_upper == "MEAS" || mnem_upper == "MEASURE" {
        let q = single_operand(&ops, no)?;
        return Ok(QuantumOp::Measure(parse_qubit(q, no)?));
    }

    Err(AsmError::new(
        no,
        format!("unknown quantum mnemonic `{mnem}`"),
    ))
}

fn single_operand<'a>(ops: &Operands<'a>, no: usize) -> Result<&'a str, AsmError> {
    if ops.len() == 1 {
        Ok(ops[0])
    } else {
        Err(AsmError::new(
            no,
            format!("expected one operand, got {}", ops.len()),
        ))
    }
}

fn parse_cond(tok: &str, no: usize) -> Result<Cond, AsmError> {
    Cond::ALL
        .into_iter()
        .find(|c| c.mnemonic().eq_ignore_ascii_case(tok))
        .ok_or_else(|| AsmError::new(no, format!("unknown condition `{tok}`")))
}

fn parse_condop(tok: &str, no: usize) -> Result<CondOp, AsmError> {
    CondOp::ALL
        .into_iter()
        .find(|c| c.mnemonic().eq_ignore_ascii_case(tok))
        .ok_or_else(|| AsmError::new(no, format!("unknown conditional op `{tok}`")))
}

/// Either a numeric address or a label reference.
fn parse_target(
    b: &mut ProgramBuilder,
    tok: &str,
    cond: Option<Cond>,
    call: bool,
    no: usize,
) -> Result<(), AsmError> {
    if let Ok(addr) = tok.parse::<u32>() {
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
        match (cond, call) {
            (Some(c), _) => b.br_to(c, tok),
            (None, true) => b.call_to(tok),
            (None, false) => b.jmp_to(tok),
        };
        Ok(())
    } else {
        Err(AsmError::new(
            no,
            format!("bad control-transfer target `{tok}`"),
        ))
    }
}

fn parse_classical(
    b: &mut ProgramBuilder,
    head: &str,
    rest: &str,
    no: usize,
) -> Result<(), AsmError> {
    let mut buf = [0; MNEMONIC_CAP];
    let mnem = uppercase(head, &mut buf);
    let ops = Operands::parse(rest);
    let wrong_arity = |n: usize| {
        AsmError::new(
            no,
            format!("{mnem} expects {n} operand(s), got {}", ops.len()),
        )
    };
    match mnem {
        "NOP" => {
            b.push(ClassicalOp::Nop);
        }
        "STOP" => {
            b.push(ClassicalOp::Stop);
        }
        "HALT" => {
            b.push(ClassicalOp::Halt);
        }
        "RET" => {
            b.push(ClassicalOp::Ret);
        }
        "JMP" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            parse_target(b, ops[0], None, false, no)?;
        }
        "CALL" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            parse_target(b, ops[0], None, true, no)?;
        }
        "BR" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            let cond = parse_cond(ops[0], no)?;
            parse_target(b, ops[1], Some(cond), false, no)?;
        }
        "LDI" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Ldi {
                rd: parse_reg(ops[0], no)?,
                imm: parse_imm(ops[1], no)?,
            });
        }
        "MOV" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Mov {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        "ADD" | "SUB" | "AND" | "OR" | "XOR" => {
            if ops.len() != 3 {
                return Err(wrong_arity(3));
            }
            let rd = parse_reg(ops[0], no)?;
            let rs1 = parse_reg(ops[1], no)?;
            let rs2 = parse_reg(ops[2], no)?;
            b.push(match mnem {
                "ADD" => ClassicalOp::Add { rd, rs1, rs2 },
                "SUB" => ClassicalOp::Sub { rd, rs1, rs2 },
                "AND" => ClassicalOp::And { rd, rs1, rs2 },
                "OR" => ClassicalOp::Or { rd, rs1, rs2 },
                _ => ClassicalOp::Xor { rd, rs1, rs2 },
            });
        }
        "ADDI" => {
            if ops.len() != 3 {
                return Err(wrong_arity(3));
            }
            b.push(ClassicalOp::Addi {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
                imm: parse_imm(ops[2], no)?,
            });
        }
        "NOT" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Not {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        "CMP" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Cmp {
                rs1: parse_reg(ops[0], no)?,
                rs2: parse_reg(ops[1], no)?,
            });
        }
        "CMPI" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Cmpi {
                rs: parse_reg(ops[0], no)?,
                imm: parse_imm(ops[1], no)?,
            });
        }
        "FMR" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Fmr {
                rd: parse_reg(ops[0], no)?,
                qubit: parse_qubit(ops[1], no)?,
            });
        }
        "QWAIT" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            let cycles: u32 = ops[0]
                .parse()
                .map_err(|_| AsmError::new(no, format!("bad QWAIT operand `{}`", ops[0])))?;
            b.push(ClassicalOp::Qwait {
                cycles: Cycles::new(cycles),
            });
        }
        "LDS" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Lds {
                rd: parse_reg(ops[0], no)?,
                sreg: parse_sreg(ops[1], no)?,
            });
        }
        "STS" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Sts {
                sreg: parse_sreg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        "MRCE" => {
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
                format!("unknown mnemonic `{}`", head.to_ascii_uppercase()),
            ))
        }
    }
    Ok(())
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
        ] {
            assert_eq!(scan_qubit_count(text), 0, "{text:?}");
        }
        assert_eq!(scan_qubit_count("0 H q1x, q2\n"), 3);
        assert_eq!(scan_qubit_count("q1q2\n"), 0);
        assert_eq!(scan_qubit_count("(q3)\n"), 4);
        assert_eq!(scan_qubit_count("0 H q0007\n"), 8);
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
    fn unknown_dependency_reported() {
        let err = assemble(".block w2 deps=w1\n0 H q0\n.endblock\n").unwrap_err();
        assert!(err.message.contains("unknown dependency"));
    }
}
