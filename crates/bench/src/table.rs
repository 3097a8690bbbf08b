//! Plain-text table rendering and JSON record dumping for the harness.

use serde::Serialize;

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics when the row length differs from the header length.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Serializes experiment rows as pretty JSON (for plotting scripts).
///
/// # Panics
///
/// Panics if serialization fails (plain data types never do).
pub fn to_json<T: Serialize>(rows: &T) -> String {
    serde_json::to_string_pretty(rows).expect("experiment rows serialize")
}

/// Writes experiment rows to `path` as pretty JSON with a trailing
/// newline — the `--json-out` backend shared by the bench binaries.
///
/// Ordering is deterministic: struct fields serialize in declaration
/// order and row vectors in their given order, so refreshing a committed
/// baseline (e.g. `BENCH_engine.json`) produces a minimal diff where
/// only measured values change.
///
/// # Panics
///
/// Panics if serialization or the write fails (bench binaries treat an
/// unwritable baseline path as fatal).
pub fn write_json<T: Serialize>(path: &str, rows: &T) {
    let mut text = to_json(rows);
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// Extracts the *schema fingerprint* of a JSON document: the sorted,
/// deduplicated set of dotted key paths, with array levels rendered as
/// `[]`. `[{"a": 1, "b": {"c": 2}}]` fingerprints as
/// `["[].a", "[].b", "[].b.c"]`. Two documents with the same
/// fingerprint have the same shape regardless of their values — which
/// is exactly what a committed `BENCH_*.json` baseline must share with
/// the binary that refreshes it.
///
/// The parser is a minimal hand-rolled scanner (the vendored
/// `serde_json` shim is render-only): it understands objects, arrays,
/// strings with escapes, and skims every other scalar to its
/// terminating delimiter.
///
/// # Errors
///
/// Returns a message describing the first malformed construct (unclosed
/// string/brace, missing colon, truncated document).
pub fn schema_fingerprint(json: &str) -> Result<Vec<String>, String> {
    struct Scanner<'a> {
        bytes: &'a [u8],
        at: usize,
        paths: std::collections::BTreeSet<String>,
    }
    impl Scanner<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.at)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.at += 1;
            }
        }
        fn expect(&mut self, b: u8) -> Result<(), String> {
            self.skip_ws();
            if self.bytes.get(self.at) == Some(&b) {
                self.at += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at byte {}", char::from(b), self.at))
            }
        }
        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let start = self.at;
            while let Some(&b) = self.bytes.get(self.at) {
                match b {
                    b'\\' => self.at += 2,
                    b'"' => {
                        let s = String::from_utf8_lossy(&self.bytes[start..self.at]).into_owned();
                        self.at += 1;
                        return Ok(s);
                    }
                    _ => self.at += 1,
                }
            }
            Err(format!("unterminated string at byte {start}"))
        }
        fn value(&mut self, path: &str) -> Result<(), String> {
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b'{') => {
                    self.at += 1;
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(());
                    }
                    loop {
                        let key = self.string()?;
                        self.expect(b':')?;
                        let child = if path.is_empty() {
                            key.clone()
                        } else {
                            format!("{path}.{key}")
                        };
                        self.paths.insert(child.clone());
                        self.value(&child)?;
                        self.skip_ws();
                        match self.bytes.get(self.at) {
                            Some(b',') => self.at += 1,
                            Some(b'}') => {
                                self.at += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
                        }
                    }
                }
                Some(b'[') => {
                    self.at += 1;
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(());
                    }
                    let child = if path.is_empty() {
                        "[]".to_string()
                    } else {
                        format!("{path}.[]")
                    };
                    loop {
                        self.value(&child)?;
                        self.skip_ws();
                        match self.bytes.get(self.at) {
                            Some(b',') => self.at += 1,
                            Some(b']') => {
                                self.at += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
                        }
                    }
                }
                Some(b'"') => self.string().map(|_| ()),
                Some(_) => {
                    // Number / true / false / null: skim to a delimiter.
                    while self.bytes.get(self.at).is_some_and(|b| {
                        !matches!(b, b',' | b'}' | b']') && !b.is_ascii_whitespace()
                    }) {
                        self.at += 1;
                    }
                    Ok(())
                }
                None => Err("truncated document".to_string()),
            }
        }
    }
    let mut s = Scanner {
        bytes: json.as_bytes(),
        at: 0,
        paths: std::collections::BTreeSet::new(),
    };
    s.value("")?;
    s.skip_ws();
    if s.at != s.bytes.len() {
        return Err(format!("trailing garbage at byte {}", s.at));
    }
    Ok(s.paths.into_iter().collect())
}

/// Compares a committed baseline's schema fingerprint against the
/// fingerprint of `current` (a freshly rendered sample of the same row
/// type) — the `--check-schema` backend shared by the bench binaries.
/// A mismatch means the row struct changed without refreshing the
/// committed JSON (or vice versa).
///
/// # Errors
///
/// Returns a diagnostic naming the paths only one side has.
pub fn check_schema(path: &str, current: &str) -> Result<(), String> {
    let committed =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let have = schema_fingerprint(&committed).map_err(|e| format!("{path}: {e}"))?;
    let want = schema_fingerprint(current).map_err(|e| format!("current rows: {e}"))?;
    if have == want {
        return Ok(());
    }
    let missing: Vec<_> = want.iter().filter(|p| !have.contains(p)).collect();
    let stale: Vec<_> = have.iter().filter(|p| !want.contains(p)).collect();
    Err(format!(
        "schema drift in {path}: committed baseline lacks {missing:?}, has stale {stale:?} — \
         refresh the committed baseline"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn json_dump_works() {
        #[derive(Serialize)]
        struct R {
            x: u32,
        }
        let s = to_json(&vec![R { x: 1 }]);
        assert!(s.contains("\"x\": 1"));
    }

    #[test]
    fn fingerprint_extracts_sorted_key_paths() {
        let fp = schema_fingerprint(r#"[{"b": {"c": [1, 2]}, "a": "x"}]"#).unwrap();
        assert_eq!(fp, vec!["[].a", "[].b", "[].b.c"]);
        // Values do not matter, only shape.
        let fp2 = schema_fingerprint(r#"[{"a": "other", "b": {"c": []}}]"#).unwrap();
        assert_eq!(fp, fp2);
        // A missing key is a different shape.
        let fp3 = schema_fingerprint(r#"[{"a": 1}]"#).unwrap();
        assert_ne!(fp, fp3);
    }

    #[test]
    fn fingerprint_survives_escapes_and_rejects_garbage() {
        let fp = schema_fingerprint(r#"{"we\"ird": true, "n": -1.5e3}"#).unwrap();
        assert_eq!(fp.len(), 2);
        assert!(schema_fingerprint("{\"open\": ").is_err());
        assert!(schema_fingerprint("[1, 2] trailing").is_err());
    }

    #[test]
    fn fingerprint_matches_rendered_rows() {
        #[derive(Serialize)]
        struct Row {
            name: String,
            nested: Vec<u64>,
        }
        let rendered = to_json(&vec![Row {
            name: "x".into(),
            nested: vec![1, 2],
        }]);
        let fp = schema_fingerprint(&rendered).unwrap();
        assert_eq!(fp, vec!["[].name", "[].nested"]);
    }
}
