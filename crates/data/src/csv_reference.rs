//! The reader this crate shipped before records were scanned into borrowed
//! cells: one `String` per cell, dtype inference and parsing as separate
//! passes, `text.lines()` for records. Kept verbatim, for tests only, as the
//! reference the differential test in `csv.rs` compares the production
//! reader with — table and diagnostics, strict and lenient. The two differ,
//! on purpose, only where a quoted field spans lines (this one splits it)
//! and in the line an unterminated header quote is reported on (this one
//! always says 1).

use super::*;

/// Parse one CSV record (handles quotes); returns the fields.
fn parse_record(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => {
                    if cur.is_empty() {
                        in_quotes = true;
                    } else {
                        cur.push(c);
                    }
                }
                ',' => {
                    fields.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err(DataError::Csv { line: line_no, message: "unterminated quote".into() });
    }
    fields.push(cur);
    Ok(fields)
}

fn infer_dtype(cells: &[Option<String>]) -> DType {
    let mut all_int = true;
    let mut all_float = true;
    let mut all_bool = true;
    let mut any = false;
    for c in cells.iter().flatten() {
        any = true;
        if all_int && c.parse::<i64>().is_err() {
            all_int = false;
        }
        if all_float && c.parse::<f64>().is_err() {
            all_float = false;
        }
        if all_bool && !matches!(c.as_str(), "true" | "false" | "True" | "False") {
            all_bool = false;
        }
        if !all_int && !all_float && !all_bool {
            return DType::Str;
        }
    }
    if !any {
        // All-null column: default to string.
        return DType::Str;
    }
    if all_int {
        DType::Int
    } else if all_float {
        DType::Float
    } else if all_bool {
        DType::Bool
    } else {
        DType::Str
    }
}

/// Lenient majority-dtype inference: the dtype most cells parse as, with the
/// losing minority (≤ `budget` of non-empty cells) destined to become nulls.
/// Falls back to `Str` (which accepts everything) when no dtype reaches the
/// threshold.
fn infer_dtype_majority(cells: &[Option<String>], budget: f64) -> DType {
    let mut n = 0usize;
    let mut int_ok = 0usize;
    let mut float_ok = 0usize;
    let mut bool_ok = 0usize;
    for c in cells.iter().flatten() {
        n += 1;
        if c.parse::<i64>().is_ok() {
            int_ok += 1;
        }
        if c.parse::<f64>().is_ok() {
            float_ok += 1;
        }
        if matches!(c.as_str(), "true" | "false" | "True" | "False") {
            bool_ok += 1;
        }
    }
    if n == 0 {
        return DType::Str;
    }
    let needed = ((1.0 - budget) * n as f64).ceil() as usize;
    if int_ok >= needed {
        DType::Int
    } else if float_ok >= needed {
        DType::Float
    } else if bool_ok >= needed {
        DType::Bool
    } else {
        DType::Str
    }
}

/// Strip a trailing carriage return so CRLF input parses identically to LF
/// input even when lines were split manually.
fn strip_cr(line: &str) -> &str {
    line.strip_suffix('\r').unwrap_or(line)
}

/// Parse CSV text into a table named `name`, honouring `opts`. Returns the
/// table plus diagnostics; in strict mode any defect is an `Err` instead.
pub(super) fn read_csv_str_opts(name: &str, text: &str, opts: &CsvReadOptions) -> Result<CsvIngest> {
    let _span = obs::span("csv_parse");
    let mut diags = IngestDiagnostics::default();
    let max_samples = opts.max_issue_samples;

    let mut lines = text
        .lines()
        .map(strip_cr)
        .enumerate()
        .filter(|(_, l)| !l.is_empty());
    let (_, header) = lines
        .next()
        .ok_or_else(|| DataError::Csv { line: 0, message: "empty input".into() })?;
    let headers = parse_record(header, 1)?;
    // In strict mode duplicate headers fall through to `Table::new`, which
    // rejects them with `DuplicateColumn`; lenient mode renames them.
    let headers = if opts.lenient {
        dedupe_headers(headers, &mut diags, max_samples)
    } else {
        headers
    };
    let n_cols = headers.len();

    let mut cells: Vec<Vec<Option<String>>> = vec![Vec::new(); n_cols];
    // Source line of each kept row, for cell-level diagnostics later.
    let mut row_lines: Vec<usize> = Vec::new();
    let mut n_data_rows = 0usize;
    for (i, line) in lines {
        let line_no = i + 1;
        n_data_rows += 1;
        let mut rec = match parse_record(line, line_no) {
            Ok(rec) => rec,
            Err(e) => {
                if !opts.lenient {
                    return Err(e);
                }
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
        if rec.len() != n_cols {
            if !opts.lenient {
                return Err(DataError::CsvRagged {
                    line: line_no,
                    expected: n_cols,
                    got: rec.len(),
                });
            }
            diags.n_repaired_rows += 1;
            diags.record(
                max_samples,
                line_no,
                IngestIssueKind::RaggedRow,
                format!("expected {n_cols} fields, got {} (repaired)", rec.len()),
            );
            rec.resize(n_cols, String::new());
        }
        row_lines.push(line_no);
        for (c, field) in rec.into_iter().enumerate() {
            cells[c].push(if field.is_empty() { None } else { Some(field) });
        }
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

    let mut cols = Vec::with_capacity(n_cols);
    for (h, col_cells) in headers.into_iter().zip(cells) {
        let dtype = if opts.lenient {
            infer_dtype_majority(&col_cells, opts.cell_coercion_budget)
        } else {
            infer_dtype(&col_cells)
        };
        // In lenient mode a cell that misses the majority dtype becomes a
        // null; record each such coercion.
        let mut coerce = |row: usize, cell: &str, to: DType| {
            diags.n_coerced_cells += 1;
            diags.record(
                max_samples,
                row_lines.get(row).copied().unwrap_or(0),
                IngestIssueKind::CoercedCell,
                format!("cell `{cell}` in column `{h}` nulled (column is {to:?})"),
            );
        };
        let col = match dtype {
            DType::Int => Column::from_ints(col_cells.iter().enumerate().map(|(r, c)| {
                c.as_ref().and_then(|s| {
                    let v = s.parse().ok();
                    if v.is_none() {
                        coerce(r, s, DType::Int);
                    }
                    v
                })
            })),
            DType::Float => Column::from_floats(col_cells.iter().enumerate().map(|(r, c)| {
                c.as_ref().and_then(|s| {
                    let v = s.parse().ok();
                    if v.is_none() {
                        coerce(r, s, DType::Float);
                    }
                    v
                })
            })),
            DType::Bool => Column::from_bools(col_cells.iter().enumerate().map(|(r, c)| {
                c.as_ref().and_then(|s| match s.as_str() {
                    "true" | "True" => Some(true),
                    "false" | "False" => Some(false),
                    other => {
                        coerce(r, other, DType::Bool);
                        None
                    }
                })
            })),
            DType::Str => Column::from_strs(col_cells.iter().map(|c| c.as_deref())),
        };
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
