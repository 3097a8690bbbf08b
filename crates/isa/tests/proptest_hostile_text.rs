//! Hostile-input properties of the two readers of wire text: the
//! assembler and the lexical qubit scan. Arbitrary bytes (read as lossy
//! UTF-8, the way a front door would decode them) must never panic
//! either, and the scan must agree with a naive line-by-line reading of
//! its token rules.

use proptest::prelude::*;
use quape_isa::{assemble, qubit_span, scan_qubit_count};

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
/// each at its first `#` or `;`, and count every `q<digits>` (either
/// case) that starts at a word boundary and ends before a
/// non-alphanumeric, non-`_` byte, when its digits parse as a `u16`.
fn naive_scan(source: &str) -> u16 {
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut indices = Vec::new();
    for raw in source.lines() {
        let line = &raw[..raw.find(['#', ';']).unwrap_or(raw.len())];
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if (i == 0 || !word(bytes[i - 1])) && matches!(bytes[i], b'q' | b'Q') {
                let start = i + 1;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

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
