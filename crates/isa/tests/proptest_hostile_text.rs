//! Hostile-input properties of the two readers of wire text: the
//! assembler and the lexical qubit scan. Arbitrary bytes (read as lossy
//! UTF-8, the way a front door would decode them) must never panic
//! either, and the scan must agree with a naive line-by-line reading of
//! its token rules. Directive- and label-structured programs must never
//! panic the assembler either, and nested blocks and duplicate labels
//! must come back as errors.

use proptest::prelude::*;
use quape_isa::{assemble, qubit_span, scan_qubit_count};
use quape_workloads::traffic::sized_program_pool;

/// Bytes biased toward the assembler's alphabet so random inputs reach
/// the operand, comment and digit paths, not only the "unknown mnemonic"
/// error.
fn arb_text() -> impl Strategy<Value = String> {
    let alphabet = b"0123456789qQrRsS_xX HMEASCNOTRXYZ[],#;:.\t\r\n-+".to_vec();
    proptest::collection::vec(
        prop_oneof![
            1 => any::<u8>(),
            3 => proptest::sample::select(alphabet),
        ],
        0..200,
    )
    .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// The scan's token rules, read the obvious way: split into lines, cut
/// each at its first `#` or `;`, and count every `q<digits>` or
/// `q+<digits>` (either case) that starts at a word boundary and ends
/// before a non-alphanumeric, non-`_` byte, when its digits parse as a
/// `u16`.
fn naive_scan(source: &str) -> u16 {
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut indices = Vec::new();
    for raw in source.lines() {
        let line = &raw[..raw.find(['#', ';']).unwrap_or(raw.len())];
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if (i == 0 || !word(bytes[i - 1])) && matches!(bytes[i], b'q' | b'Q') {
                let start = if bytes.get(i + 1) == Some(&b'+') {
                    i + 2
                } else {
                    i + 1
                };
                let mut end = start;
                while end < bytes.len() && bytes[end].is_ascii_digit() {
                    end += 1;
                }
                if end > start && (end == bytes.len() || !word(bytes[end])) {
                    if let Ok(index) = line[start..end].parse::<u16>() {
                        indices.push(index);
                    }
                }
                i = end;
            } else {
                i += 1;
            }
        }
    }
    qubit_span(indices)
}

/// Tokens that start, end or cut a `q` token, each placed so that it
/// straddles every byte offset of the two 8-byte words around it, after
/// word and non-word bytes alike.
#[test]
fn scan_tokens_straddle_word_edges() {
    let tokens = [
        "q7", "Q12", "q65535", "q65536", "q0007", "q1x", "_q3", "q", "#", ";", "# q9", "; q9",
        "#\nq4", "q\u{a0}5", "é q6", "q+9", "q+", "q++9", "xq+9",
    ];
    let pads = [" ", "a", "\n", "\r", "9"];
    let tails = ["", " q3\n", "\n", "x", "5 q2", ",q11", "\n;q9\nq1"];
    for token in tokens {
        for pad in pads {
            for offset in 0..=17 {
                for tail in tails {
                    let text = format!("{}{token}{tail}", pad.repeat(offset));
                    assert_eq!(scan_qubit_count(&text), naive_scan(&text), "{text:?}");
                }
            }
        }
    }
}

/// Every catalog text, with tokens injected at each residue of the byte
/// offset mod 8, scans as the naive reading does; unmodified, it scans
/// to the assembled program's qubit count.
#[test]
fn scan_matches_on_catalog_texts_with_injected_tokens() {
    let tokens = ["q9", "Q127", "q", "#", ";", "q12x", "_", "\n", "q65535"];
    for (_, text) in sized_program_pool(48) {
        let program = assemble(&text).expect("catalog text assembles");
        assert_eq!(scan_qubit_count(&text), program.num_qubits());
        for residue in 0..8 {
            let mut injected = text.clone();
            let stride = text.len() / tokens.len();
            for (i, token) in tokens.iter().enumerate() {
                let at = (i * stride) / 8 * 8 + residue;
                injected.insert_str(at.min(injected.len()), token);
            }
            assert_eq!(
                scan_qubit_count(&injected),
                naive_scan(&injected),
                "residue {residue}"
            );
        }
    }
}

fn block_names() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec!["a", "b", "w1", "q2", "_t"])
}

fn instructions() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec![
        "0 H q0",
        "1 CNOT q0, q1",
        "2 MEAS q1",
        "FMR r0, q1",
        "CMPI r0, 1",
        "MRCE q1, q0, X, NONE",
        "STOP",
    ])
}

/// One line of a program built from the assembler's structure: block
/// and step directives, labels (alone or before an instruction), label
/// references and plain instructions. Names come from a small set, so
/// nested blocks, duplicate labels and undefined references all occur.
fn arb_structured_line() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => (
            block_names(),
            proptest::sample::select(vec![
                "prio=0", "prio=1", "deps=none", "deps=a", "deps=a,b", "deps=w1", "",
            ]),
        )
            .prop_map(|(name, spec)| format!(".block {name} {spec}")),
        3 => Just(".endblock".to_string()),
        1 => proptest::sample::select(vec![".step 0", ".step 2", ".step none"])
            .prop_map(String::from),
        2 => block_names().prop_map(|name| format!("{name}:")),
        2 => (block_names(), instructions()).prop_map(|(name, i)| format!("{name}: {i}")),
        2 => (
            proptest::sample::select(vec!["JMP", "CALL", "BR EQ,"]),
            block_names(),
        )
            .prop_map(|(op, name)| format!("{op} {name}")),
        5 => instructions().prop_map(String::from),
    ]
}

/// What a reading of the directives alone says about `lines`: the
/// 1-based line of the first `.block` opened inside an open one, and
/// whether some label is bound twice.
fn structure_faults(lines: &[String]) -> (Option<usize>, bool) {
    let (mut open, mut nested) = (false, None);
    let mut labels = Vec::new();
    let mut duplicate = false;
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with(".block") {
            if open && nested.is_none() {
                nested = Some(i + 1);
            }
            open = true;
        } else if line == ".endblock" {
            open = false;
        } else if let Some((label, _)) = line.split_once(':') {
            duplicate |= labels.contains(&label);
            labels.push(label);
        }
    }
    (nested, duplicate)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn structured_programs_never_panic_and_reject_bad_structure(
        lines in proptest::collection::vec(arb_structured_line(), 0..24),
    ) {
        let text = lines.join("\n");
        let verdict = assemble(&text);
        let (nested, duplicate) = structure_faults(&lines);
        if let Some(line) = nested {
            // Some line at or before the nested `.block` fails first.
            let err = verdict.as_ref().expect_err("nested block accepted");
            prop_assert!((1..=line).contains(&err.line), "{err}");
        } else if duplicate {
            prop_assert!(verdict.is_err(), "duplicate label accepted");
        }
    }

    #[test]
    fn arbitrary_text_never_panics(text in arb_text()) {
        let _ = assemble(&text);
        let _ = scan_qubit_count(&text);
    }

    #[test]
    fn scan_matches_the_naive_reading(text in arb_text()) {
        prop_assert_eq!(scan_qubit_count(&text), naive_scan(&text));
    }

    #[test]
    fn arbitrary_raw_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = assemble(&text);
        prop_assert_eq!(scan_qubit_count(&text), naive_scan(&text));
    }
}
