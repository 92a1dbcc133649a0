//! Minimal CSV reader/writer with type inference and a fail-soft mode.
//!
//! Supports RFC-4180-style quoting (`"..."` with `""` escapes, and line
//! breaks inside quotes), CRLF line endings, a header row, and per-column
//! type inference over the full file: a column is `Int` if its non-empty
//! cells parse as integers, else `Float` if they parse as floats, else
//! `Bool` if they are `true`/`false`, else `Str` — where "they parse" allows
//! as many misses as [`CsvReadOptions::cell_coercion_budget`] does (none in
//! strict mode), and a miss becomes a null. Empty cells are nulls. The text
//! is scanned once, eight bytes a step, into spans pushed straight into
//! their column (a quoted field that needs unescaping is rebuilt in a
//! per-read side buffer); the columns are then typed on the shared pool,
//! each cell's text parsed at most once per type tried.
//!
//! Two ingestion modes ([`CsvReadOptions`]):
//!
//! * **strict** — any structural defect (ragged row, unterminated quote,
//!   duplicate header) aborts with a typed [`DataError`]; this is the
//!   historical behaviour of [`read_csv_str`].
//! * **lenient** — the reader repairs what it can (pads/truncates ragged
//!   rows, skips unparseable lines, renames duplicate headers, nulls cells
//!   that miss their column's dtype) up to a configurable bad-row budget,
//!   and reports everything it did in [`IngestDiagnostics`]. Data lakes are
//!   full of files that are 99% fine; lenient mode keeps the 99% instead of
//!   aborting on the 1% (§IV of the paper's lake setting).

use std::fs;
use std::path::Path;

use autofeat_obs as obs;

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::parallel;
use crate::table::Table;

/// How tolerant CSV ingestion is of malformed input.
#[derive(Debug, Clone)]
pub struct CsvReadOptions {
    /// Repair defects instead of aborting on them.
    pub lenient: bool,
    /// Lenient mode: maximum fraction of data rows that may need repair or
    /// skipping before ingestion gives up on the file anyway. `0.2` means a
    /// file with more than 20% bad rows is rejected as unreadable.
    pub bad_row_budget: f64,
    /// Lenient mode: maximum fraction of a column's non-empty cells allowed
    /// to miss a dtype and be nulled; a column that no dtype fits within it
    /// is `Str` and keeps every cell verbatim. Strict mode allows none.
    pub cell_coercion_budget: f64,
    /// Cap on per-issue samples retained in [`IngestDiagnostics::issues`]
    /// (counts are always exact; samples keep memory bounded).
    pub max_issue_samples: usize,
}

impl Default for CsvReadOptions {
    fn default() -> Self {
        CsvReadOptions::strict()
    }
}

impl CsvReadOptions {
    /// Abort on the first structural defect (historical behaviour).
    pub fn strict() -> Self {
        CsvReadOptions {
            lenient: false,
            bad_row_budget: 0.0,
            cell_coercion_budget: 0.0,
            max_issue_samples: 20,
        }
    }

    /// Repair defects up to a 20% bad-row budget and a 10% per-column cell
    /// coercion budget.
    pub fn lenient() -> Self {
        CsvReadOptions {
            lenient: true,
            bad_row_budget: 0.2,
            cell_coercion_budget: 0.1,
            max_issue_samples: 20,
        }
    }
}

/// What kind of defect an [`IngestIssue`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestIssueKind {
    /// A data row with more or fewer fields than the header.
    RaggedRow,
    /// A line that could not be parsed at all (e.g. unterminated quote).
    UnparseableRow,
    /// A cell nulled because it missed its column's dtype.
    CoercedCell,
    /// A header repeated verbatim; the duplicate was renamed.
    DuplicateHeader,
}

/// One recorded ingestion defect (a bounded sample; see
/// [`CsvReadOptions::max_issue_samples`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestIssue {
    /// 1-based source line the defect was found on (0 when not line-bound).
    pub line: usize,
    /// Defect category.
    pub kind: IngestIssueKind,
    /// Human-readable specifics (expected vs got counts, offending cell…).
    pub detail: String,
}

/// Structured account of everything lenient ingestion repaired or dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestDiagnostics {
    /// Data rows kept in the resulting table.
    pub n_rows: usize,
    /// Ragged rows padded or truncated to the header width.
    pub n_repaired_rows: usize,
    /// Rows dropped because they could not be parsed at all.
    pub n_skipped_rows: usize,
    /// Cells nulled because they missed their column's dtype.
    pub n_coerced_cells: usize,
    /// Duplicate headers renamed with `#k` suffixes.
    pub n_renamed_headers: usize,
    /// Bounded sample of individual defects (counts above are exact).
    pub issues: Vec<IngestIssue>,
    /// Exact total number of defects observed (≥ `issues.len()`).
    pub n_issues_total: usize,
}

impl IngestDiagnostics {
    /// True when the file was ingested without a single repair.
    pub fn is_clean(&self) -> bool {
        self.n_issues_total == 0
    }

    fn record(&mut self, max_samples: usize, line: usize, kind: IngestIssueKind, detail: String) {
        self.n_issues_total += 1;
        if self.issues.len() < max_samples {
            self.issues.push(IngestIssue { line, kind, detail });
        }
    }
}

/// A parsed table together with the diagnostics of its ingestion.
#[derive(Debug, Clone)]
pub struct CsvIngest {
    /// The parsed table.
    pub table: Table,
    /// What (if anything) had to be repaired to produce it.
    pub diagnostics: IngestDiagnostics,
}

/// A cell as the bytes `start..end` that [`RecordScanner::cell`] reads:
/// offsets below the text's length are the text, the rest the scanner's side
/// buffer. An empty span is a null. Offsets are `usize`, so they address any
/// text; the side buffer holds only kept records' fields, each no longer than
/// its run of the text, so it is never longer than the text and they cannot
/// overflow.
#[derive(Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// `0x01` in every byte of a word.
const LOW_BITS: u64 = u64::from_ne_bytes([0x01; 8]);
/// `0x80` in every byte of a word.
const HIGH_BITS: u64 = u64::from_ne_bytes([0x80; 8]);

/// The high bit of every zero byte of `x` set, and the bits of bytes above
/// the lowest zero byte possibly set too: a borrow out of a zero byte can
/// flag a `0x01` byte above it, never one below. So the lowest set bit, and
/// only it, is exact. `!x` keeps a byte of `0x81` or more, whose high bit
/// survives the subtraction, from being flagged.
fn zero_bytes(x: u64) -> u64 {
    x.wrapping_sub(LOW_BITS) & !x & HIGH_BITS
}

/// The offset of the first `,` or `\n` in `bytes` at or after `from`, or
/// `bytes.len()` if there is none. Reads eight bytes a word, in text order
/// (little-endian), and the last 0–7 one at a time. UTF-8 safe: neither byte
/// occurs inside a multi-byte sequence.
fn find_delimiter(bytes: &[u8], mut from: usize) -> usize {
    const COMMAS: u64 = LOW_BITS * b',' as u64;
    const NEWLINES: u64 = LOW_BITS * b'\n' as u64;
    while let Some(word) = bytes.get(from..from + 8) {
        let x = u64::from_le_bytes(word.try_into().expect("an eight-byte slice"));
        let hits = zero_bytes(x ^ COMMAS) | zero_bytes(x ^ NEWLINES);
        if hits != 0 {
            return from + hits.trailing_zeros() as usize / 8;
        }
        from += 8;
    }
    from + bytes[from..].iter().position(|&b| b == b',' || b == b'\n').unwrap_or(bytes.len() - from)
}

/// Reads CSV text one record at a time into cell spans, copying only what a
/// quoted field needs rebuilt.
///
/// A record is a physical line, continued over line breaks for as long as a
/// quote that opened one of its fields is unclosed. A field is an optional
/// quoted part (only a quote at the very start of a field opens one; `""`
/// inside it is a literal quote) followed by literal text up to the next
/// comma or line end. A line ends at `\n` or `\r\n`, and one more trailing
/// `\r` is dropped from every line.
struct RecordScanner<'a> {
    text: &'a str,
    /// Fields whose text is not a run of the input: a quoted part with a
    /// `""` escape, or with text after its closing quote. A span addresses
    /// it at offset `text.len()` on.
    side: String,
    /// Offset of the next record.
    pos: usize,
    /// 1-based physical line of `pos`.
    line: usize,
    /// A quote left open on an earlier line ran to the end of the input, so
    /// every later line break sits inside quotes for a reader that reaches
    /// it inside quotes: a quote still open at the end of its own line will
    /// stay open. Lets each further such record fail after one line instead
    /// of another scan to the end.
    open_to_end: bool,
}

impl<'a> RecordScanner<'a> {
    fn new(text: &'a str) -> Self {
        RecordScanner { text, side: String::new(), pos: 0, line: 1, open_to_end: false }
    }

    /// The text of a cell this scanner produced.
    fn cell(&self, span: Span) -> &str {
        let n = self.text.len();
        if span.start < n {
            &self.text[span.start..span.end]
        } else {
            &self.side[span.start - n..span.end - n]
        }
    }

    /// Scan the next non-blank record, handing `field(k, span)` its `k`-th
    /// field for each field in order. Returns the physical line the record
    /// starts on and its number of fields — only the line, as `Err`, when a
    /// quote it opened never closes (the fields handed over so far are then
    /// void, what they wrote to `side` is taken back, and the scanner resumes
    /// after that one line) — or `None` at the end of the input.
    fn next_record(
        &mut self,
        mut field: impl FnMut(usize, Span),
    ) -> Option<std::result::Result<(usize, usize), usize>> {
        let text = self.text;
        let bytes = text.as_bytes();
        loop {
            if self.pos >= bytes.len() {
                return None;
            }
            let (start, first_line, side_len) = (self.pos, self.line, self.side.len());
            let mut pos = start;
            let mut k = 0;
            let blank = loop {
                let mut quoted = None;
                if bytes.get(pos) == Some(&b'"') {
                    let Some((content, after)) = self.quoted(pos + 1) else {
                        self.side.truncate(side_len);
                        self.open_to_end = true;
                        self.pos = text[start..].find('\n').map_or(bytes.len(), |i| start + i + 1);
                        self.line = first_line + 1;
                        return Some(Err(first_line));
                    };
                    self.line += bytes[pos..after].iter().filter(|&&b| b == b'\n').count();
                    quoted = Some(content);
                    pos = after;
                }
                let tail_start = pos;
                pos = find_delimiter(bytes, pos);
                let mut tail_end = pos;
                let ends_record = bytes.get(pos) != Some(&b',');
                if ends_record {
                    // The `\r` of a `\r\n`, and one more.
                    let strips = if pos < bytes.len() { 2 } else { 1 };
                    for _ in 0..strips {
                        if tail_end > tail_start && bytes[tail_end - 1] == b'\r' {
                            tail_end -= 1;
                        }
                    }
                    if k == 0 && quoted.is_none() && tail_start == tail_end {
                        pos += 1;
                        break true;
                    }
                }
                let tail = Span { start: tail_start, end: tail_end };
                field(k, match quoted {
                    None => tail,
                    Some(content) if tail.is_empty() => content,
                    Some(content) => self.joined(content, tail),
                });
                k += 1;
                pos += 1;
                if ends_record {
                    break false;
                }
            };
            self.pos = pos.min(bytes.len());
            self.line += 1;
            if !blank {
                return Some(Ok((first_line, k)));
            }
        }
    }

    /// The quoted part whose opening quote sits just before `from`: its
    /// content with `""` unescaped, and the offset past its closing quote.
    /// `None` when the input ends first.
    fn quoted(&mut self, from: usize) -> Option<(Span, usize)> {
        let text = self.text;
        let limit = if self.open_to_end {
            text[from..].find('\n').map_or(text.len(), |i| from + i)
        } else {
            text.len()
        };
        // Where the unescaped content starts in `side`, once it has a `""`.
        let mut unescaped = None;
        let mut segment = from;
        loop {
            let quote = segment + text[segment..limit].find('"')?;
            if text.as_bytes().get(quote + 1) == Some(&b'"') {
                unescaped.get_or_insert(self.side.len());
                self.side.push_str(&text[segment..=quote]);
                segment = quote + 2;
                continue;
            }
            let content = match unescaped {
                None => Span { start: segment, end: quote },
                Some(at) => {
                    self.side.push_str(&text[segment..quote]);
                    self.side_span(at)
                }
            };
            return Some((content, quote + 1));
        }
    }

    /// A quoted part's `content` followed by the `tail` after its closing
    /// quote, as one span of `side`. Content `quoted` unescaped is the end
    /// of `side` already, so only the tail is appended to it.
    fn joined(&mut self, content: Span, tail: Span) -> Span {
        let at = if content.start < self.text.len() {
            let at = self.side.len();
            self.side.push_str(&self.text[content.start..content.end]);
            at
        } else {
            content.start - self.text.len()
        };
        self.side.push_str(&self.text[tail.start..tail.end]);
        self.side_span(at)
    }

    /// The span from offset `at` of `side` to its end.
    fn side_span(&self, at: usize) -> Span {
        let n = self.text.len();
        Span { start: n + at, end: n + self.side.len() }
    }
}

fn parse_bool(cell: &str) -> Option<bool> {
    match cell {
        "true" | "True" => Some(true),
        "false" | "False" => Some(false),
        _ => None,
    }
}

/// The column `build` makes of the cells as `parse` reads them, each miss (a
/// non-empty cell `parse` rejects) read as a null, and the rows of the
/// misses; or `None` at the miss that makes more than `allowed`, where
/// `build` stops being fed cells and its partial column is dropped.
fn parse_column<'a, T>(
    cells: impl Iterator<Item = Option<&'a str>>,
    allowed: usize,
    parse: impl Fn(&str) -> Option<T>,
    build: impl FnOnce(&mut dyn Iterator<Item = Option<T>>) -> Column,
) -> Option<(Column, Vec<usize>)> {
    let mut misses = Vec::new();
    let column = build(&mut cells.enumerate().map_while(|(row, c)| {
        let Some(c) = c else {
            return Some(None);
        };
        let v = parse(c);
        if v.is_none() {
            misses.push(row);
            if misses.len() > allowed {
                return None;
            }
        }
        Some(v)
    }));
    (misses.len() <= allowed).then_some((column, misses))
}

/// A column typed from its cells: `Int` if all but `budget` of its non-empty
/// cells parse as integers, else `Float` by the same test, else `Bool`, else
/// `Str` (also when every cell is empty). A cell that misses the chosen
/// dtype is a null, and its row is returned, in row order.
///
/// Each try is one pass that builds the column as it parses, and gives up at
/// the first miss over the allowance; at a budget of 0 that is the first
/// miss, so an integer column costs one `i64` parse a cell and a float
/// column one failed `i64` parse and one `f64` parse.
fn typed_cells(spans: &[Span], scanner: &RecordScanner, budget: f64) -> (Column, Vec<usize>) {
    let cells = || spans.iter().map(|&s| (!s.is_empty()).then(|| scanner.cell(s)));
    // Of the `n` non-empty cells at least `needed` must parse, so `n - needed`
    // may miss. At a budget of 0 that is none, and nothing needs counting.
    let allowed = if budget == 0.0 {
        spans.iter().any(|s| !s.is_empty()).then_some(0)
    } else {
        let n = spans.iter().filter(|s| !s.is_empty()).count();
        let needed = ((1.0 - budget) * n as f64).ceil() as usize;
        n.checked_sub(needed).filter(|_| n > 0)
    };
    let typed = allowed.and_then(|allowed| {
        parse_column(cells(), allowed, |c| c.parse().ok(), |v| Column::from_ints(v))
            .or_else(|| {
                parse_column(cells(), allowed, |c| c.parse().ok(), |v| Column::from_floats(v))
            })
            .or_else(|| parse_column(cells(), allowed, parse_bool, |v| Column::from_bools(v)))
    });
    typed.unwrap_or_else(|| (Column::from_strs(cells()), Vec::new()))
}

/// Rename duplicate headers with `#k` suffixes (`x`, `x#2`, `x#3`, …).
fn dedupe_headers(
    headers: Vec<String>,
    diags: &mut IngestDiagnostics,
    max_samples: usize,
) -> Vec<String> {
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(headers.len());
    for h in headers {
        if seen.insert(h.clone()) {
            out.push(h);
            continue;
        }
        let mut k = 2usize;
        let renamed = loop {
            let candidate = format!("{h}#{k}");
            if seen.insert(candidate.clone()) {
                break candidate;
            }
            k += 1;
        };
        diags.n_renamed_headers += 1;
        diags.record(
            max_samples,
            1,
            IngestIssueKind::DuplicateHeader,
            format!("duplicate header `{h}` renamed to `{renamed}`"),
        );
        out.push(renamed);
    }
    out
}

/// Parse CSV text into a table named `name`, honouring `opts`. Returns the
/// table plus diagnostics; in strict mode any defect is an `Err` instead.
///
/// One scan pushes each cell's span straight into its column; the columns
/// are then typed on the shared pool, and their coerced cells recorded here,
/// column by column and row by row, so the diagnostics are the same at any
/// worker count.
pub(crate) fn read_csv_str_opts(name: &str, text: &str, opts: &CsvReadOptions) -> Result<CsvIngest> {
    let _span = obs::span("csv_parse");
    let mut diags = IngestDiagnostics::default();
    let max_samples = opts.max_issue_samples;
    let unterminated = |line| DataError::Csv { line, message: "unterminated quote".into() };

    let mut scanner = RecordScanner::new(text);
    let mut header = Vec::new();
    match scanner.next_record(|_, span| header.push(span)) {
        None => return Err(DataError::Csv { line: 0, message: "empty input".into() }),
        Some(Err(line)) => return Err(unterminated(line)),
        Some(Ok(_)) => {}
    }
    let headers: Vec<String> = header.iter().map(|&span| scanner.cell(span).to_string()).collect();
    // In strict mode duplicate headers fall through to `Table::new`, which
    // rejects them with `DuplicateColumn`; lenient mode renames them.
    let headers = if opts.lenient {
        dedupe_headers(headers, &mut diags, max_samples)
    } else {
        headers
    };
    let n_cols = headers.len();

    let mut cells: Vec<Vec<Span>> = vec![Vec::new(); n_cols];
    // Source line of each kept row, for cell-level diagnostics later.
    let mut row_lines: Vec<usize> = Vec::new();
    let mut n_data_rows = 0usize;
    // A field past the header's width has no column to go to: a long row is
    // cut to the header's width.
    while let Some(scanned) =
        scanner.next_record(|k, span| cells.get_mut(k).into_iter().for_each(|c| c.push(span)))
    {
        n_data_rows += 1;
        let (line_no, n_fields) = match scanned {
            Ok(record) => record,
            Err(line_no) => {
                let e = unterminated(line_no);
                if !opts.lenient {
                    return Err(e);
                }
                // Take back the spans the dropped row had pushed.
                cells.iter_mut().for_each(|c| c.truncate(row_lines.len()));
                diags.n_skipped_rows += 1;
                diags.record(
                    max_samples,
                    line_no,
                    IngestIssueKind::UnparseableRow,
                    format!("row dropped: {e}"),
                );
                continue;
            }
        };
        if n_fields != n_cols {
            if !opts.lenient {
                return Err(DataError::CsvRagged { line: line_no, expected: n_cols, got: n_fields });
            }
            diags.n_repaired_rows += 1;
            diags.record(
                max_samples,
                line_no,
                IngestIssueKind::RaggedRow,
                format!("expected {n_cols} fields, got {n_fields} (repaired)"),
            );
            // A short row's missing fields are nulls.
            for column in cells.iter_mut().skip(n_fields) {
                column.push(Span { start: 0, end: 0 });
            }
        }
        row_lines.push(line_no);
    }

    let bad_rows = diags.n_repaired_rows + diags.n_skipped_rows;
    if opts.lenient && n_data_rows > 0 {
        let frac = bad_rows as f64 / n_data_rows as f64;
        if frac > opts.bad_row_budget {
            return Err(DataError::Csv {
                line: 0,
                message: format!(
                    "bad-row budget exceeded: {bad_rows}/{n_data_rows} rows malformed \
                     ({:.0}% > {:.0}% allowed)",
                    frac * 100.0,
                    opts.bad_row_budget * 100.0
                ),
            });
        }
    }

    let budget = if opts.lenient { opts.cell_coercion_budget } else { 0.0 };
    let typed = parallel::build_indexed(n_cols, |c| typed_cells(&cells[c], &scanner, budget));
    let mut cols = Vec::with_capacity(n_cols);
    for ((h, (col, misses)), spans) in headers.into_iter().zip(typed).zip(&cells) {
        for row in misses {
            diags.n_coerced_cells += 1;
            let (cell, dtype) = (scanner.cell(spans[row]), col.dtype());
            diags.record(
                max_samples,
                row_lines[row],
                IngestIssueKind::CoercedCell,
                format!("cell `{cell}` in column `{h}` nulled (column is {dtype:?})"),
            );
        }
        cols.push((h, col));
    }
    let table = Table::new(name, cols)?;
    diags.n_rows = table.n_rows();
    obs::add("ingest.rows_loaded", diags.n_rows as u64);
    obs::add("ingest.rows_repaired", diags.n_repaired_rows as u64);
    obs::add("ingest.rows_skipped", diags.n_skipped_rows as u64);
    obs::add("ingest.cells_coerced", diags.n_coerced_cells as u64);
    Ok(CsvIngest { table, diagnostics: diags })
}

/// Parse CSV text into a table named `name` (strict mode).
pub fn read_csv_str(name: &str, text: &str) -> Result<Table> {
    read_csv_str_opts(name, text, &CsvReadOptions::strict()).map(|i| i.table)
}

/// Read a CSV file honouring `opts`; the table is named after the file stem.
pub fn read_csv_opts(path: impl AsRef<Path>, opts: &CsvReadOptions) -> Result<CsvIngest> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .to_string();
    let text = fs::read_to_string(path)?;
    read_csv_str_opts(&name, &text, opts)
}

/// Read a CSV file into a table named after the file stem (strict mode).
pub fn read_csv(path: impl AsRef<Path>) -> Result<Table> {
    read_csv_opts(path, &CsvReadOptions::strict()).map(|i| i.table)
}

fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serialize a table to CSV text (header + rows; nulls as empty fields).
pub fn write_csv_str(table: &Table) -> String {
    let mut out = String::new();
    let mut push_line = |mut fields: Vec<String>| {
        // A lone empty field would be a blank line, which readers skip: a
        // one-column table writes it quoted, which reads back as the null.
        if let [only] = fields.as_mut_slice() {
            if only.is_empty() {
                only.push_str("\"\"");
            }
        }
        out.push_str(&fields.join(","));
        out.push('\n');
    };
    push_line(table.column_names().iter().map(|n| escape(n)).collect());
    for r in 0..table.n_rows() {
        push_line(
            (0..table.n_cols()).map(|c| escape(&table.column_at(c).get(r).to_string())).collect(),
        );
    }
    out
}

/// Write a table to a CSV file.
pub fn write_csv(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    fs::write(path, write_csv_str(table))?;
    Ok(())
}

// The reference reader names the dtypes; the reader above never has to.
#[cfg(test)]
use crate::value::DType;

#[cfg(test)]
#[path = "csv_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn roundtrip_basic_types() {
        let csv = "id,score,name,flag\n1,0.5,alice,true\n2,1.5,bob,false\n";
        let t = read_csv_str("t", csv).unwrap();
        assert_eq!(t.column("id").unwrap().dtype(), DType::Int);
        assert_eq!(t.column("score").unwrap().dtype(), DType::Float);
        assert_eq!(t.column("name").unwrap().dtype(), DType::Str);
        assert_eq!(t.column("flag").unwrap().dtype(), DType::Bool);
        let back = read_csv_str("t", &write_csv_str(&t)).unwrap();
        assert_eq!(back.value("name", 1).unwrap(), Value::str("bob"));
        assert_eq!(back.n_rows(), 2);
    }

    #[test]
    fn empty_cells_are_null() {
        let t = read_csv_str("t", "a,b\n1,\n,2\n").unwrap();
        assert_eq!(t.value("a", 1).unwrap(), Value::Null);
        assert_eq!(t.value("b", 0).unwrap(), Value::Null);
        assert_eq!(t.column("a").unwrap().null_count(), 1);
    }

    #[test]
    fn quoted_fields_with_commas_and_escapes() {
        let t = read_csv_str("t", "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.value("a", 0).unwrap(), Value::str("x,y"));
        assert_eq!(t.value("b", 0).unwrap(), Value::str("he said \"hi\""));
    }

    #[test]
    fn quoted_roundtrip() {
        let t = read_csv_str("t", "a\n\"x,y\"\n").unwrap();
        let again = read_csv_str("t", &write_csv_str(&t)).unwrap();
        assert_eq!(again.value("a", 0).unwrap(), Value::str("x,y"));
    }

    #[test]
    fn mixed_int_float_column_is_float() {
        let t = read_csv_str("t", "a\n1\n2.5\n").unwrap();
        assert_eq!(t.column("a").unwrap().dtype(), DType::Float);
    }

    #[test]
    fn all_null_column_defaults_to_str() {
        let t = read_csv_str("t", "a,b\n,1\n,2\n").unwrap();
        assert_eq!(t.column("a").unwrap().dtype(), DType::Str);
    }

    #[test]
    fn ragged_row_errors() {
        let r = read_csv_str("t", "a,b\n1\n");
        assert!(matches!(
            r,
            Err(DataError::CsvRagged { line: 2, expected: 2, got: 1 })
        ));
    }

    #[test]
    fn ragged_row_error_reports_expected_vs_got() {
        let r = read_csv_str("t", "a,b,c\n1,2,3\n1,2,3,4,5\n");
        match r {
            Err(DataError::CsvRagged { line, expected, got }) => {
                assert_eq!((line, expected, got), (3, 3, 5));
            }
            other => panic!("expected CsvRagged, got {other:?}"),
        }
    }

    #[test]
    fn crlf_line_endings_accepted() {
        let t = read_csv_str("t", "a,b\r\n1,x\r\n2,y\r\n").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.column("a").unwrap().dtype(), DType::Int);
        assert_eq!(t.value("b", 1).unwrap(), Value::str("y"));
    }

    #[test]
    fn lenient_pads_and_truncates_ragged_rows() {
        let opts = CsvReadOptions { bad_row_budget: 1.0, ..CsvReadOptions::lenient() };
        let ingest =
            read_csv_str_opts("t", "a,b\n1,x\n2\n3,y,EXTRA\n", &opts).unwrap();
        assert_eq!(ingest.table.n_rows(), 3);
        // Short row padded with a null; long row truncated.
        assert_eq!(ingest.table.value("b", 1).unwrap(), Value::Null);
        assert_eq!(ingest.table.value("b", 2).unwrap(), Value::str("y"));
        assert_eq!(ingest.diagnostics.n_repaired_rows, 2);
        assert!(!ingest.diagnostics.is_clean());
        assert!(ingest
            .diagnostics
            .issues
            .iter()
            .all(|i| i.kind == IngestIssueKind::RaggedRow));
    }

    #[test]
    fn lenient_skips_unparseable_rows() {
        let opts = CsvReadOptions { bad_row_budget: 1.0, ..CsvReadOptions::lenient() };
        let ingest = read_csv_str_opts("t", "a\nok\n\"oops\nfine\n", &opts).unwrap();
        // The unterminated quote swallows the rest of its line only.
        assert_eq!(ingest.diagnostics.n_skipped_rows, 1);
        assert!(ingest.table.n_rows() >= 1);
    }

    #[test]
    fn lenient_renames_duplicate_headers() {
        let opts = CsvReadOptions::lenient();
        let ingest = read_csv_str_opts("t", "a,a,a\n1,2,3\n", &opts).unwrap();
        let names = ingest.table.column_names();
        assert_eq!(names, vec!["a", "a#2", "a#3"]);
        assert_eq!(ingest.diagnostics.n_renamed_headers, 2);
    }

    #[test]
    fn strict_rejects_duplicate_headers() {
        let r = read_csv_str("t", "a,a\n1,2\n");
        assert!(matches!(r, Err(DataError::DuplicateColumn { .. })));
    }

    #[test]
    fn lenient_coerces_minority_cells_to_null() {
        let opts = CsvReadOptions::lenient();
        let csv = "a\n1\n2\n3\n4\n5\n6\n7\n8\n9\noops\n";
        let ingest = read_csv_str_opts("t", csv, &opts).unwrap();
        assert_eq!(ingest.table.column("a").unwrap().dtype(), DType::Int);
        assert_eq!(ingest.table.value("a", 9).unwrap(), Value::Null);
        assert_eq!(ingest.diagnostics.n_coerced_cells, 1);
        assert!(ingest
            .diagnostics
            .issues
            .iter()
            .any(|i| i.kind == IngestIssueKind::CoercedCell));
        // Strict mode falls back to Str for the same input instead.
        let strict = read_csv_str("t", csv).unwrap();
        assert_eq!(strict.column("a").unwrap().dtype(), DType::Str);
    }

    /// `(dtype, nulls)` per column, and `(line, detail)` per issue.
    type Typing = (Vec<(DType, usize)>, Vec<(usize, String)>);

    /// How `text` is typed, with every issue a coerced cell.
    fn typing_of(text: &str, opts: &CsvReadOptions) -> Typing {
        let ingest = read_csv_str_opts("t", text, opts).unwrap();
        let t = &ingest.table;
        let cols = (0..t.n_cols()).map(|c| (t.column_at(c).dtype(), t.column_at(c).null_count()));
        let issues = ingest.diagnostics.issues.iter().map(|i| (i.line, i.detail.clone()));
        assert_eq!(ingest.diagnostics.n_issues_total, ingest.diagnostics.n_coerced_cells);
        (cols.collect(), issues.collect())
    }

    /// The literals are what the reader printed when strict and lenient
    /// typing were separate routines.
    #[test]
    fn coercion_budget_boundary_decides_as_before() {
        // 20 non-empty cells at a 10% budget: 2 may miss. `a` misses `Int`
        // twice; `b` misses it three times, and `Float` twice.
        let mut text = String::from("a,b\n");
        for (a, b) in [
            "1", "2", "3", "4", "x", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
            "16", "17", "18", "y",
        ]
        .into_iter()
        .zip([
            "1", "2", "3", "2.5", "4", "5", "6", "x", "7", "8", "9", "10", "11", "12", "13", "14",
            "15", "16", "17", "y",
        ]) {
            text.push_str(&format!("{a},{b}\n"));
        }
        let cell = |line, c: &str, col: &str, dtype: &str| {
            (line, format!("cell `{c}` in column `{col}` nulled (column is {dtype})"))
        };
        assert_eq!(
            typing_of(&text, &CsvReadOptions::lenient()),
            (
                vec![(DType::Int, 2), (DType::Float, 2)],
                vec![
                    cell(6, "x", "a", "Int"),
                    cell(21, "y", "a", "Int"),
                    cell(9, "x", "b", "Float"),
                    cell(21, "y", "b", "Float"),
                ]
            )
        );
        // At a 70% budget, 10 cells need ⌈(1 − 0.7) · 10⌉ = 4 in floating
        // point, not 3: `c` has 4 integers and is `Int`, `d` has 3 and is `Str`.
        let text = "c,d\n1,1\nx,x\n2,2\ny,y\n3,3\nz,z\n4,w\nw,v\nv,u\nu,t\n";
        let opts = CsvReadOptions { cell_coercion_budget: 0.7, ..CsvReadOptions::lenient() };
        let c_misses = [(3, "x"), (5, "y"), (7, "z"), (9, "w"), (10, "v"), (11, "u")];
        assert_eq!(
            typing_of(text, &opts),
            (
                vec![(DType::Int, 6), (DType::Str, 0)],
                c_misses.iter().map(|&(line, c)| cell(line, c, "c", "Int")).collect()
            )
        );
    }

    #[test]
    fn bad_row_budget_enforced() {
        // 2 of 3 rows ragged > 20% default budget.
        let opts = CsvReadOptions::lenient();
        let r = read_csv_str_opts("t", "a,b\n1\n2\n3,x\n", &opts);
        match r {
            Err(DataError::Csv { message, .. }) => {
                assert!(message.contains("budget"), "{message}");
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn strict_ingest_is_clean() {
        let ingest =
            read_csv_str_opts("t", "a,b\n1,x\n", &CsvReadOptions::strict()).unwrap();
        assert!(ingest.diagnostics.is_clean());
        assert_eq!(ingest.diagnostics.n_rows, 1);
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(read_csv_str("t", "a\n\"oops\n").is_err());
    }

    /// A table as `(name, dtype, cells)` per column, the cells in a form that
    /// tells `-0.0` from `0.0`.
    type Cells = Vec<(String, DType, Vec<String>)>;

    fn cells_of(t: &Table) -> Cells {
        (0..t.n_cols())
            .map(|c| {
                let col = t.column_at(c);
                let cells = (0..t.n_rows()).map(|r| format!("{:?}", col.get(r))).collect();
                (t.field_at(c).name.clone(), col.dtype(), cells)
            })
            .collect()
    }

    fn notes_table(note: &str) -> Table {
        Table::new(
            "t",
            vec![
                ("id", Column::from_ints([Some(1), Some(2)])),
                ("note", Column::from_strs([Some(note), Some("plain")])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn quoted_line_breaks_round_trip() {
        for note in ["line one\nline two", "line one\r\nline two", "\n", "ends in a return\r"] {
            let t = notes_table(note);
            let text = write_csv_str(&t);
            assert_eq!(read_csv_str("t", &text).unwrap(), t, "strict, {note:?}");
            let lenient = read_csv_str_opts("t", &text, &CsvReadOptions::lenient()).unwrap();
            assert_eq!(lenient.table, t, "lenient, {note:?}");
            assert!(lenient.diagnostics.is_clean(), "{:?}", lenient.diagnostics);
        }
        let text = write_csv_str(&notes_table("line one\nline two"));
        assert_eq!(text, "id,note\n1,\"line one\nline two\"\n2,plain\n");
        // The same file with CRLF line ends keeps the break it finds in the
        // quotes.
        let crlf = text.replace('\n', "\r\n");
        assert_eq!(read_csv_str("t", &crlf).unwrap(), notes_table("line one\r\nline two"));
        let lenient = read_csv_str_opts("t", &crlf, &CsvReadOptions::lenient()).unwrap();
        assert_eq!(lenient.table, notes_table("line one\r\nline two"));
        assert!(lenient.diagnostics.is_clean());
    }

    #[test]
    fn line_numbers_count_the_lines_inside_quotes() {
        let r = read_csv_str("t", "a,b\n\"x\ny\nz\",1\n\n3\n");
        assert!(matches!(r, Err(DataError::CsvRagged { line: 6, expected: 2, got: 1 })), "{r:?}");
        // A multi-line header is a header.
        let t = read_csv_str("t", "\"a\nb\",c\n1,2\n").unwrap();
        assert_eq!(t.column_names(), vec!["a\nb", "c"]);
    }

    #[test]
    fn quote_open_at_end_of_input_drops_only_its_first_line() {
        let text = "a,b\n1,x\n2,\"oops\n3,y\n4,z\n";
        assert_eq!(
            read_csv_str("t", text).unwrap_err(),
            DataError::Csv { line: 3, message: "unterminated quote".into() }
        );
        let opts = CsvReadOptions { bad_row_budget: 1.0, ..CsvReadOptions::lenient() };
        let ingest = read_csv_str_opts("t", text, &opts).unwrap();
        assert_eq!(ingest.table.n_rows(), 3);
        assert_eq!(ingest.diagnostics.n_skipped_rows, 1);
        assert_eq!(ingest.diagnostics.issues[0].line, 3);
        assert_eq!(ingest.table.value("b", 2).unwrap(), Value::str("z"));
    }

    #[test]
    fn a_dropped_record_takes_back_what_it_wrote_to_the_side_buffer() {
        // The record on line 2 rebuilds a quoted field in `side` (joined with
        // the `b` after its closing quote) on line 3, and then opens a quote
        // that never closes. The scanner resumes at line 3, rebuilds the same
        // field again, and drops that record too.
        let long = "a".repeat(1000);
        let text = format!("a,b,c\n\"\nx\",\"{long}\"b,\"open\n");
        let mut scanner = RecordScanner::new(&text);
        let mut records = Vec::new();
        while let Some(record) = scanner.next_record(|_, _| {}) {
            records.push(record);
            assert!(scanner.side.len() <= text.len(), "{} > {}", scanner.side.len(), text.len());
        }
        assert_eq!(records, [Ok((1, 3)), Err(2), Err(3)]);
        assert!(scanner.side.is_empty());
        assert_readers_agree(&text);
    }

    #[test]
    fn lone_null_round_trips_in_a_one_column_table() {
        let t = Table::new("t", vec![("x", Column::from_ints([Some(1), None, Some(3)]))]).unwrap();
        let text = write_csv_str(&t);
        assert_eq!(text, "x\n1\n\"\"\n3\n");
        assert_eq!(read_csv_str("t", &text).unwrap(), t);
        let lenient = read_csv_str_opts("t", &text, &CsvReadOptions::lenient()).unwrap();
        assert_eq!(lenient.table, t);
        assert!(lenient.diagnostics.is_clean());
        // With a second column the null stays an empty field.
        let two = t.with_column("y", Column::from_ints([None, None, Some(1)])).unwrap();
        assert_eq!(write_csv_str(&two), "x,y\n1,\n,\n3,1\n");
        assert_eq!(read_csv_str("t", &write_csv_str(&two)).unwrap(), two);
    }

    #[test]
    fn delimiter_search_matches_the_byte_loop() {
        // The neighbours of `,` (0x2C) and `\n` (0x0A), and the second bytes
        // of `¬` and `Ŋ`, 0xAC and 0x8A, which are the delimiters plus 0x80.
        let filler = "+-\t\u{b}¬Ŋ".as_bytes();
        assert_eq!(filler, [0x2B, 0x2D, 0x09, 0x0B, 0xC2, 0xAC, 0xC5, 0x8A]);
        let byte_loop = |bytes: &[u8], from: usize| {
            let rest = &bytes[from..];
            from + rest.iter().position(|&b| b == b',' || b == b'\n').unwrap_or(rest.len())
        };
        for len in 0..=40 {
            for phase in 0..filler.len() {
                let text: Vec<u8> = (0..len).map(|i| filler[(phase + i) % filler.len()]).collect();
                for delimiter in [b',', b'\n'] {
                    // `at == len` puts no delimiter in the text.
                    for at in 0..=len {
                        let mut text = text.clone();
                        if at < len {
                            text[at] = delimiter;
                        }
                        for from in 0..=len {
                            assert_eq!(
                                find_delimiter(&text, from),
                                byte_loop(&text, from),
                                "{text:?} from {from}"
                            );
                        }
                    }
                }
            }
        }
    }

    // -- Differential test against the previous reader ----------------------

    /// SplitMix64: the generator's own stream, so a case is a pure function
    /// of its seed.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
        fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
            pool[self.below(pool.len())]
        }
    }

    const INTS: &[&str] = &["0", "1", "42", "-7", "+7", "007", "-0", "9223372036854775807"];
    const FLOATS: &[&str] = &[
        "1.5", "1e5", "-0.0", "nan", "NaN", "inf", "-inf", "infinity", ".5", "5.", "2.5E-3", "1",
        "-0", "9223372036854775808",
    ];
    const BOOLS: &[&str] = &["true", "false", "True", "False"];
    const WORDS: &[&str] = &[
        "abc",
        "x y",
        "héllo",
        " 5",
        "TRUE",
        "1_000",
        "-",
        "e5",
        "a\rb",
        // `¬` spans the cell's bytes 7–8 and `Ŋ` its bytes 15–16: the
        // delimiter search's first two word boundaries.
        "abcdefg¬hijklmŊop",
    ];
    /// Fields that exercise the quoting rules (each balanced within itself).
    const QUOTED: &[&str] = &[
        "\"x,y\"",
        "\"he said \"\"hi\"\"\"",
        "\"\"",
        "\"12\"",
        "\"1.5\"",
        "\"a\"b",
        "a\"b",
        "\"\"\"\"",
        "\"\"tail",
        "\"true\"",
        "\"a\"b\"c\"",
    ];
    const HEADERS: &[&str] = &["a", "b", "id", "a", "x y", "\"n,m\"", "a#2", ""];

    /// CSV text with every defect the readers repair — and none of what
    /// they are meant to differ on: no quote stays open across a line break
    /// unless it stays open to the end of the input.
    fn generated_csv(seed: u64) -> String {
        let mut d = Draw(seed);
        let n_cols = 1 + d.below(4);
        let eol = if d.chance(50) { "\n" } else { "\r\n" };
        let mut text = String::new();
        for _ in 0..d.below(3) {
            text.push_str(eol); // blank lines before the header
        }
        // Never a lone empty name: that header would be a blank line, the
        // first data row would be read as the header, and a quote left open
        // there is reported on its own line here and on line 1 before.
        let header: Vec<&str> =
            (0..n_cols).map(|_| d.pick(&HEADERS[..HEADERS.len() - usize::from(n_cols == 1)])).collect();
        text.push_str(&header.join(","));
        text.push_str(eol);
        // Per column: the pool most of its cells come from, and how often a
        // cell comes from elsewhere or is empty.
        let pools = [INTS, FLOATS, BOOLS, WORDS, QUOTED];
        let kinds: Vec<(usize, usize, usize)> =
            (0..n_cols).map(|_| (d.below(5), [0, 3, 8, 30][d.below(4)], [0, 10, 100][d.below(3)])).collect();
        let n_rows = d.below(40);
        // From this row on no field carries a quote, so the quote this row
        // leaves open stays open to the end.
        let open_from = if d.chance(25) { d.below(n_rows + 1) } else { usize::MAX };
        for row in 0..n_rows {
            let quotes_allowed = row < open_from;
            let width = match d.below(20) {
                0 => d.below(n_cols + 3),
                _ => n_cols,
            };
            let mut fields: Vec<String> = (0..width)
                .map(|c| {
                    let (kind, stray, empty) = kinds[c % n_cols];
                    if d.chance(empty) {
                        return String::new();
                    }
                    let pool = if d.chance(stray) { pools[d.below(5)] } else { pools[kind] };
                    let cell = d.pick(pool);
                    if quotes_allowed || !cell.contains('"') { cell.to_string() } else { "q".into() }
                })
                .collect();
            if row == open_from {
                fields.push("\"never closed".into());
            }
            text.push_str(&fields.join(","));
            text.push_str(if d.chance(3) { "\r\r\n" } else { eol });
            if d.chance(5) {
                text.push_str(eol); // a blank line
            }
        }
        if d.chance(30) {
            while text.ends_with(['\n', '\r']) {
                text.pop(); // no final line end
            }
            if d.chance(30) {
                text.push('\r');
            }
        }
        text
    }

    fn outcome(r: Result<CsvIngest>) -> Result<(Cells, IngestDiagnostics)> {
        r.map(|i| (cells_of(&i.table), i.diagnostics))
    }

    fn assert_readers_agree(text: &str) {
        let few_samples = CsvReadOptions { max_issue_samples: 2, ..CsvReadOptions::lenient() };
        let all_options = [
            CsvReadOptions::strict(),
            CsvReadOptions::lenient(),
            CsvReadOptions { bad_row_budget: 1.0, ..CsvReadOptions::lenient() },
            CsvReadOptions { cell_coercion_budget: 0.5, bad_row_budget: 1.0, ..few_samples },
        ];
        for opts in &all_options {
            assert_eq!(
                outcome(read_csv_str_opts("t", text, opts)),
                outcome(reference::read_csv_str_opts("t", text, opts)),
                "readers differ under {opts:?} on {text:?}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn reader_matches_the_previous_reader(seed in 0u64..u64::MAX) {
            for case in 0..40 {
                assert_readers_agree(&generated_csv(seed.wrapping_add(case)));
            }
        }
    }

    #[test]
    fn readers_agree_on_the_edges() {
        for text in [
            "",
            "\n\n",
            "a",
            "a\r",
            "a\n\r\n\r",
            "a,b\n1,2\r\r\n3,4\r",
            "\"\"\n\"\"\n",
            "a\n\"\n",
            "a,a\n\"x\"\"\n",
            "a\n1\n\n\n2",
            "a,b\n,\n,\n",
            "é,ü\n\"ß,ß\",√\n",
        ] {
            assert_readers_agree(text);
        }
    }

    #[test]
    fn every_line_reopening_the_quote_costs_one_line_each() {
        // Each line closes the quote the line before left open and opens
        // another, so every record runs to the end of the input and fails —
        // for the first by scanning there, for the rest by knowing it. A
        // scan to the end per line would be 4·10⁹ byte steps here.
        let n = 40_000;
        let text = format!("a,b\n{}", "x\",\"\n".repeat(n));
        let opts = CsvReadOptions { bad_row_budget: 1.0, ..CsvReadOptions::lenient() };
        let ingest = read_csv_str_opts("t", &text, &opts).unwrap();
        assert_eq!((ingest.table.n_rows(), ingest.diagnostics.n_skipped_rows), (0, n));
        assert_readers_agree(&text);
    }

    #[test]
    fn empty_input_errors() {
        assert!(read_csv_str("t", "").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let t = read_csv_str("x", "a,b\n1,hello\n").unwrap();
        let dir = std::env::temp_dir().join("autofeat_csv_test.csv");
        write_csv(&t, &dir).unwrap();
        let back = read_csv(&dir).unwrap();
        assert_eq!(back.name(), "autofeat_csv_test");
        assert_eq!(back.value("b", 0).unwrap(), Value::str("hello"));
        std::fs::remove_file(dir).ok();
    }
}
