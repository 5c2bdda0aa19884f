//! Tabular log writer: the TSV/JSONL backend of per-request span traces.
//!
//! The span *schema* lives with the engines that emit spans (see
//! `llmsim-core`'s `trace` module); this module owns only the wire
//! formats. Both renderings are fully deterministic: cells are formatted
//! with `f64`'s shortest-roundtrip `Display`, so identical simulations
//! produce byte-identical files — the property the replay CI job diffs
//! against.

use std::borrow::Cow;
use std::fmt::Write as _;

/// One value in a tabular log row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A string cell (TSV: written raw with tabs/newlines replaced by
    /// spaces; JSONL: quoted and escaped). A `'static` label borrows, so
    /// building the cell allocates nothing.
    Str(Cow<'static, str>),
    /// An integer cell.
    Int(i64),
    /// A float cell. `NaN` marks "not applicable" (e.g. the dispatch time
    /// of a rejected request) and renders as `NaN` in TSV / `null` in
    /// JSONL.
    Num(f64),
}

impl Cell {
    /// Appends this cell as one TSV field (tabs/newlines in strings become
    /// spaces; floats use shortest-roundtrip `Display`).
    fn push_tsv(&self, out: &mut String) {
        match self {
            Cell::Str(s) => out.extend(s.chars().map(|c| match c {
                '\t' | '\n' | '\r' => ' ',
                c => c,
            })),
            Cell::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Cell::Num(x) => {
                let _ = write!(out, "{x}");
            }
        }
    }

    /// Appends this cell as one JSON value (`NaN`/infinities become
    /// `null`, strings are escaped).
    fn push_json(&self, out: &mut String) {
        match self {
            Cell::Str(s) => push_json_string(out, s),
            Cell::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Cell::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Cell::Num(_) => out.push_str("null"),
        }
    }
}

/// Appends one TSV data line, `\n`-terminated, to `out`.
///
/// [`TabularLog::to_tsv`] and the streaming span sink in `llmsim-core`
/// both append through this function, which is what makes a streamed
/// file byte-identical to a buffered render of the same rows.
pub fn push_tsv_line(out: &mut String, cells: &[Cell]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        cell.push_tsv(out);
    }
    out.push('\n');
}

/// Column names rendered once as JSON object keys (`"name":`), so a
/// JSONL row copies each key instead of escaping it again.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonKeys(Vec<String>);

impl JsonKeys {
    /// Escapes every column name of a schema.
    #[must_use]
    pub fn new(columns: &[String]) -> Self {
        JsonKeys(
            columns
                .iter()
                .map(|col| {
                    let mut key = String::with_capacity(col.len() + 3);
                    push_json_string(&mut key, col);
                    key.push(':');
                    key
                })
                .collect(),
        )
    }
}

/// Appends one JSONL object line, `\n`-terminated, to `out`: the row's
/// cells under `keys`. Shared by [`TabularLog::to_jsonl`] and the
/// streaming span sink for the same byte-identity reason as
/// [`push_tsv_line`].
///
/// # Panics
///
/// Panics if `keys` and `cells` have different lengths.
pub fn push_jsonl_line(out: &mut String, keys: &JsonKeys, cells: &[Cell]) {
    assert_eq!(
        keys.0.len(),
        cells.len(),
        "row arity {} != column count {}",
        cells.len(),
        keys.0.len()
    );
    out.push('{');
    for (i, (key, cell)) in keys.0.iter().zip(cells).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        cell.push_json(out);
    }
    out.push_str("}\n");
}

/// Appends `s` as a JSON string literal.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A fixed-arity table of [`Cell`]s renderable as TSV or JSONL.
#[derive(Debug, Clone, PartialEq)]
pub struct TabularLog {
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl TabularLog {
    /// Creates an empty log with the given column names.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    #[must_use]
    pub fn new(columns: Vec<String>) -> Self {
        assert!(!columns.is_empty(), "a tabular log needs columns");
        TabularLog {
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row arity does not match the header.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity {} != column count {}",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Data rows recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no data rows have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as tab-separated values: one header line, one line per row,
    /// `\n` line endings.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = self.columns.join("\t");
        out.push('\n');
        for row in &self.rows {
            push_tsv_line(&mut out, row);
        }
        out
    }

    /// Renders as JSON Lines: one object per row keyed by column name.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let keys = JsonKeys::new(&self.columns);
        let mut out = String::new();
        for row in &self.rows {
            push_jsonl_line(&mut out, &keys, row);
        }
        out
    }
}

/// Validates that `text` is a well-formed TSV log: a non-empty header and
/// at least one data row, every row with the header's arity. Returns the
/// data-row count.
///
/// # Errors
///
/// Returns a description of the first structural problem found — the
/// check the CI replay job fails on.
pub fn validate_tsv(text: &str) -> Result<usize, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| "empty file".to_string())?;
    let arity = header.split('\t').count();
    if header.trim().is_empty() {
        return Err("blank header line".into());
    }
    let mut rows = 0usize;
    for (i, line) in lines.enumerate() {
        let got = line.split('\t').count();
        if got != arity {
            return Err(format!(
                "row {} has {got} fields, header has {arity}",
                i + 1
            ));
        }
        rows += 1;
    }
    if rows == 0 {
        return Err("no data rows".into());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TabularLog {
        let mut t = TabularLog::new(vec!["id".into(), "name".into(), "lat_s".into()]);
        t.row(vec![Cell::Int(0), Cell::Str("spr".into()), Cell::Num(0.25)]);
        t.row(vec![
            Cell::Int(1),
            Cell::Str("a100".into()),
            Cell::Num(f64::NAN),
        ]);
        t
    }

    #[test]
    fn tsv_round_trip_structure() {
        let t = sample();
        let tsv = t.to_tsv();
        assert_eq!(tsv, "id\tname\tlat_s\n0\tspr\t0.25\n1\ta100\tNaN\n");
        assert_eq!(validate_tsv(&tsv), Ok(2));
    }

    #[test]
    fn jsonl_escapes_and_nulls() {
        let mut t = TabularLog::new(vec!["k".into(), "v".into()]);
        t.row(vec![Cell::Str("a\"b\\c\nd".into()), Cell::Num(f64::NAN)]);
        assert_eq!(t.to_jsonl(), "{\"k\":\"a\\\"b\\\\c\\nd\",\"v\":null}\n");
    }

    #[test]
    fn tsv_replaces_embedded_tabs() {
        let mut t = TabularLog::new(vec!["s".into()]);
        t.row(vec![Cell::Str("a\tb".into())]);
        assert_eq!(t.to_tsv(), "s\na b\n");
    }

    #[test]
    fn validation_rejects_malformed_logs() {
        assert!(validate_tsv("").is_err());
        assert!(validate_tsv("a\tb\n").is_err(), "no data rows");
        assert!(validate_tsv("a\tb\n1\n").is_err(), "arity mismatch");
        assert_eq!(validate_tsv("a\tb\n1\t2\n"), Ok(1));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics_at_append() {
        let mut t = TabularLog::new(vec!["a".into(), "b".into()]);
        t.row(vec![Cell::Int(1)]);
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(sample().to_tsv(), sample().to_tsv());
        assert_eq!(sample().to_jsonl(), sample().to_jsonl());
    }
}
