//! Pins every verdict of the assembler over a seeded corpus: the
//! workload generators' round-trip texts plus thousands of line- and
//! byte-level mutations of them. Each verdict — `Ok` as the program's
//! digest and block count, `Err` as its line and message — folds into
//! one 64-bit fingerprint asserted against a committed constant, so a
//! change to how the assembler reads text that moves any accepted
//! program, error line or error message fails here.
//!
//! The constant also moves when a generator in `quape-workloads` changes
//! its output; re-pin it only after checking that the assembler did not
//! change.

use quape_isa::{assemble, AsmError, Fnv64, Program};
use quape_workloads::traffic::{program_pool, sized_program_pool};

/// The fingerprint of every verdict over [`corpus`].
const VERDICT_FINGERPRINT: u64 = 0x4315_8479_8ba8_6c65;

/// Mutated texts in the corpus, on top of the unmutated generator texts.
const MUTANTS: usize = 4096;

/// SplitMix64: a tiny, fully specified generator, so the corpus does not
/// depend on any RNG crate's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias does not matter here).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

const FORTY_DIGITS: &str = "1234567890123456789012345678901234567890";

/// Labels drawn from a small set, so duplicates and both forward and
/// backward references occur.
const LABELS: &[&str] = &["top", "skip", "l0", "l1", "_x", "q3", "end"];

/// Whitespace and near-whitespace the assembler must treat as written:
/// ASCII separators, NBSP, NEL, U+3000, U+2028, and a zero-width space
/// (which is not whitespace).
const SPACES: &[&str] = &[
    " ", "\t", "\r", "\x0b", "\x0c", "\u{a0}", "\u{85}", "\u{3000}", "\u{2028}", "\u{200b}",
];

/// Whole lines a mutation may insert.
fn extra_line(rng: &mut SplitMix) -> String {
    let label = rng.pick(LABELS);
    let n = rng.below(6);
    match rng.below(12) {
        0 => format!(
            ".block b{n} {}",
            rng.pick(&[
                "prio=0",
                "prio=1",
                "prio=+2",
                "prio=x",
                "prio=",
                "prio=70000",
                "deps=none",
                "deps=NONE",
                "deps=b0",
                "deps=b0,b1",
                "deps=b1,",
                "deps=zz",
                "bogus=1",
                "",
            ])
        ),
        1 => rng
            .pick(&[".endblock", ".endblock extra", ".ENDBLOCK", ". endblock"])
            .to_string(),
        2 => rng
            .pick(&[
                ".step 0",
                ".step 3",
                ".step none",
                ".step NONE",
                ".step -1",
                ".step +2",
                ".step",
                ".stp 3",
                ".",
                ".block",
            ])
            .to_string(),
        3 => format!("{label}:"),
        4 => format!("{label}: 0 H q{n}"),
        5 => format!(
            "{} {label}",
            rng.pick(&["JMP", "CALL", "BR EQ,", "BR ne,", "br XX,", "jmp"])
        ),
        6 => rng
            .pick(&["# comment q9", "; note", "   # indented", "#"])
            .to_string(),
        7 => {
            rng.pick(&[
                "0 H q",
                "QWAIT ",
                "LDI r1, ",
                "0 RX[",
                "BR EQ, ",
                "CMPI r0, -",
                "0 CNOT q0, q",
            ])
            .to_string()
                + FORTY_DIGITS
                + rng.pick(&["", "]", " q0", ", q1"])
        }
        8 => format!("{FORTY_DIGITS} H q0"),
        9 => rng
            .pick(&[
                "MOV r1, r2",
                "ADD r1, r2, r3",
                "ADDI r1, r1, -5",
                "LDS r1, s3",
                "STS s2, r1",
                "STS s16, r1",
                "NOT r1, r2",
                "CMP r1, r2",
                "CMPI r0, +1",
                "LDI r31, -32768",
                "LDI r32, 1",
                "LDI r1, 32768",
                "0 CNOT q0, q1",
                "0 SWAP q1, q0, q2",
                "0 RZ[31] q3",
                "0 RX[32] q1",
                "0 ry[+4] Q2",
                "0 RW[3] q0",
                "0 MEASURE q4",
                "128 X q0",
                "+3 H q1",
                "0",
                "NOP",
                "HALT",
                "RET",
                "STOP r1, r2",
                "MRCE q0, q1, X, NONE",
                "MRCE q0, q1, Q, NONE",
                "QWAIT 4294967295",
                "MOV r1,, r2",
                "MOV r1 r2",
            ])
            .to_string(),
        10 => format!("a:b: 0 H q{n}"),
        _ => String::new(),
    }
}

/// One line-level mutation.
fn mutate_lines(lines: &mut Vec<String>, rng: &mut SplitMix) {
    let at = rng.below(lines.len() + 1);
    let existing = at.min(lines.len().saturating_sub(1));
    match rng.below(7) {
        0 if !lines.is_empty() => {
            lines.remove(existing);
        }
        1 if !lines.is_empty() => {
            let line = lines[existing].clone();
            lines.insert(existing, line);
        }
        2 if lines.len() > 1 => {
            let i = rng.below(lines.len() - 1);
            lines.swap(i, i + 1);
        }
        3 if !lines.is_empty() => {
            let line = &mut lines[existing];
            *line = if rng.below(2) == 0 {
                line.to_ascii_lowercase()
            } else {
                line.to_ascii_uppercase()
            };
        }
        4 if !lines.is_empty() => {
            let comment = rng.pick(&[" # q7", "; q9", "#", " ;;"]);
            lines[existing].push_str(comment);
        }
        _ => lines.insert(at, extra_line(rng)),
    }
}

/// One byte-level mutation (the result may be invalid UTF-8; the corpus
/// reads it back lossily, the way a front door decodes wire bytes).
fn mutate_bytes(bytes: &mut Vec<u8>, rng: &mut SplitMix) {
    let at = rng.below(bytes.len() + 1);
    let insert = |bytes: &mut Vec<u8>, s: &str| {
        bytes.splice(at..at, s.bytes());
    };
    match rng.below(8) {
        0 if at < bytes.len() => {
            bytes.remove(at);
        }
        1 => {
            // Flip the case of the next ASCII letter.
            if let Some(b) = bytes[at..].iter_mut().find(|b| b.is_ascii_alphabetic()) {
                *b ^= 0x20;
            }
        }
        2 => insert(bytes, rng.pick(SPACES)),
        3 => insert(bytes, rng.pick(&["#", ";", "# q5", "; q2"])),
        4 => insert(bytes, FORTY_DIGITS),
        5 => insert(
            bytes,
            rng.pick(&[
                ",", ":", ".", "+", "-", "[", "]", "é", "\u{fffd}", "\n", "\r\n", "_", "q", "Q",
            ]),
        ),
        6 => {
            if let Some(b) = bytes[at..].iter_mut().find(|b| b.is_ascii_digit()) {
                *b = b'0' + rng.below(10) as u8;
            }
        }
        _ => {
            let n = rng.below(3) + 1;
            let end = (at + n).min(bytes.len());
            bytes.drain(at..end);
        }
    }
}

/// The unmutated generator texts.
fn generator_texts() -> Vec<String> {
    let mut texts: Vec<String> = sized_program_pool(48)
        .into_iter()
        .map(|(_, text)| text)
        .collect();
    texts.extend(program_pool().into_iter().map(|(_, p)| p.to_string()));
    texts
}

/// The generator texts followed by [`MUTANTS`] mutated excerpts of them.
fn corpus() -> Vec<String> {
    let bases = generator_texts();
    let mut rng = SplitMix(0x0a55_e3b1_e7e5_7001);
    let mut texts = bases.clone();
    for _ in 0..MUTANTS {
        // A prefix of a generator text plus its last line: the feedback
        // chains branch forward to the next round, so most such
        // excerpts still assemble before they are mutated.
        let lines: Vec<&str> = bases[rng.below(bases.len())].lines().collect();
        let len = rng.below(lines.len().min(40));
        let mut lines: Vec<String> = lines[..len]
            .iter()
            .chain(lines.last())
            .map(|l| l.to_string())
            .collect();
        for _ in 0..rng.below(5) {
            mutate_lines(&mut lines, &mut rng);
        }
        let mut bytes = lines.join(rng.pick(&["\n", "\n", "\r\n"])).into_bytes();
        if rng.below(4) != 0 {
            bytes.push(b'\n');
        }
        for _ in 0..rng.below(4) {
            mutate_bytes(&mut bytes, &mut rng);
        }
        texts.push(String::from_utf8_lossy(&bytes).into_owned());
    }
    texts
}

fn fold(h: &mut Fnv64, verdict: &Result<Program, AsmError>) {
    match verdict {
        Ok(p) => h
            .write(&[0])
            .write_u64(p.digest().0)
            .write_u64(p.blocks().len() as u64),
        Err(e) => h.write(&[1]).write_u64(e.line as u64).write_str(&e.message),
    };
}

#[test]
fn generator_texts_assemble() {
    for text in generator_texts() {
        let program = assemble(&text).expect("generator text assembles");
        assert_eq!(program.to_string(), text, "round trip");
    }
}

#[test]
fn verdicts_match_the_pinned_fingerprint() {
    let corpus = corpus();
    assert!(corpus.len() >= MUTANTS);
    let mut h = Fnv64::new();
    let (mut ok, mut messages) = (0, Vec::new());
    for text in &corpus {
        let verdict = assemble(text);
        fold(&mut h, &verdict);
        match verdict {
            Ok(_) => ok += 1,
            Err(e) => messages.push(e.message),
        }
    }
    // The corpus reaches both verdicts and the assembler's error paths,
    // so the fingerprint pins more than "unknown mnemonic".
    assert!(
        ok * 5 >= corpus.len() && messages.len() * 5 >= corpus.len(),
        "{ok} accepted of {}",
        corpus.len()
    );
    for needle in [
        "nested `.block`",
        "duplicate label",
        "undefined label",
        "was never closed",
        "bad priority",
        "bad block spec",
        "unknown dependency",
        "bad step",
        "unknown directive",
        "empty directive",
        "requires a name",
        "exceeds",
        "unknown quantum mnemonic",
        "unknown mnemonic",
        "rotation index",
        "expected one operand",
        "requires two qubit operands",
        "operand(s), got",
        "expected qubit operand",
        "expected register operand",
        "expected shared register",
        "bad immediate",
        "bad QWAIT operand",
        "bad control-transfer target",
        "unknown condition",
        "unknown conditional op",
    ] {
        assert!(
            messages.iter().any(|m| m.contains(needle)),
            "no verdict in the corpus says `{needle}`"
        );
    }
    assert_eq!(
        h.finish(),
        VERDICT_FINGERPRINT,
        "assembler verdicts moved: {:#018x}",
        h.finish()
    );
}
