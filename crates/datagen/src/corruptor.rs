//! Deterministic fault injection for robustness testing.
//!
//! Real data lakes fail in mundane ways: exports truncated mid-row, ragged
//! lines, empty files, columns that are entirely null, NaN-laden floats,
//! foreign keys pointing nowhere, copy-pasted headers. This module injects
//! exactly those faults into serialized CSV tables — deterministically, from
//! a seed — so the fail-soft ingestion ([`autofeat_data::csv`]) and the
//! per-path error isolation of discovery can be tested against a lake that
//! is broken in *known* ways with *known* accounting.
//!
//! All faults operate on CSV **text** (the on-disk representation the
//! lenient reader actually faces). Field splitting is plain `,`-based, which
//! is sufficient for the numeric tables the generator emits.

use autofeat_data::faults::TableFaults;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One kind of lake corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Chop the file mid-row: the last surviving data line is cut in half
    /// (mid-cell), simulating a truncated export.
    TruncatedRows,
    /// Make a fraction of data rows ragged: some lose their last field,
    /// some gain a spurious extra field.
    RaggedRows,
    /// Keep the header but drop every data row (a zero-row table).
    EmptyTable,
    /// Blank every value of one (non-first) column.
    AllNullColumn,
    /// Replace a fraction of one numeric column's values with `NaN`.
    NanFloats,
    /// Shift every value of the first `*_id` column far out of its domain,
    /// so joins through it find no matches.
    DanglingKeys,
    /// Overwrite the second header field with a copy of the first.
    DuplicateHeader,
}

impl FaultKind {
    /// Every fault kind, for exhaustive harness sweeps.
    pub fn all() -> Vec<FaultKind> {
        vec![
            FaultKind::TruncatedRows,
            FaultKind::RaggedRows,
            FaultKind::EmptyTable,
            FaultKind::AllNullColumn,
            FaultKind::NanFloats,
            FaultKind::DanglingKeys,
            FaultKind::DuplicateHeader,
        ]
    }
}

/// A record of one injected fault: which table, what kind, and what exactly
/// was done — the ground truth a robustness test asserts accounting against.
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// Table (file stem) the fault was injected into.
    pub table: String,
    /// What was injected.
    pub kind: FaultKind,
    /// Specifics (which column, how many rows, …).
    pub detail: String,
}

/// Seeded fault injector. Each [`inject`](FaultInjector::inject) call draws
/// from the injector's RNG, so a fixed seed and call sequence reproduces the
/// same corrupted lake byte for byte.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
    /// Manifest of everything injected so far.
    pub manifest: Vec<InjectedFault>,
}

impl FaultInjector {
    /// Injector with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector { rng: StdRng::seed_from_u64(seed), manifest: Vec::new() }
    }

    /// Inject `kind` into the CSV text of table `name`, returning the
    /// corrupted text and recording the fault in the manifest.
    pub fn inject(&mut self, name: &str, csv: &str, kind: FaultKind) -> String {
        let mut lines: Vec<String> = csv.lines().map(String::from).collect();
        if lines.is_empty() {
            self.record(name, kind, "input empty; unchanged".into());
            return csv.to_string();
        }
        let header: Vec<String> = lines[0].split(',').map(String::from).collect();
        let detail;
        match kind {
            FaultKind::TruncatedRows => {
                // Keep the header plus roughly the first 70% of data rows,
                // then chop the final kept row in half.
                let n_data = lines.len() - 1;
                let keep = (n_data * 7 / 10).max(1).min(n_data);
                lines.truncate(1 + keep);
                let last = lines.len() - 1;
                let cut = lines[last].len() / 2;
                lines[last].truncate(cut);
                detail = format!("kept {keep}/{n_data} rows, cut last row at byte {cut}");
            }
            FaultKind::RaggedRows => {
                let n_data = lines.len() - 1;
                let mut n_short = 0usize;
                let mut n_long = 0usize;
                for line in lines.iter_mut().skip(1) {
                    if !self.rng.random_bool(0.2) {
                        continue;
                    }
                    if self.rng.random_bool(0.5) {
                        if let Some(pos) = line.rfind(',') {
                            line.truncate(pos);
                            n_short += 1;
                        }
                    } else {
                        line.push_str(",999");
                        n_long += 1;
                    }
                }
                detail = format!("{n_short} rows shortened, {n_long} lengthened of {n_data}");
            }
            FaultKind::EmptyTable => {
                lines.truncate(1);
                detail = "all data rows dropped (header kept)".into();
            }
            FaultKind::AllNullColumn => {
                let col = if header.len() > 1 {
                    1 + self.rng.random_range(0..header.len() - 1)
                } else {
                    0
                };
                for line in lines.iter_mut().skip(1) {
                    let mut fields: Vec<&str> = line.split(',').collect();
                    if col < fields.len() {
                        fields[col] = "";
                    }
                    *line = fields.join(",");
                }
                detail = format!("column `{}` blanked in every row", header[col]);
            }
            FaultKind::NanFloats => {
                // Prefer a column whose values contain a decimal point.
                let sample: Vec<&str> =
                    lines.get(1).map(|l| l.split(',').collect()).unwrap_or_default();
                let col = sample
                    .iter()
                    .position(|v| v.contains('.'))
                    .unwrap_or(header.len().saturating_sub(1));
                let mut n = 0usize;
                for line in lines.iter_mut().skip(1) {
                    if !self.rng.random_bool(0.3) {
                        continue;
                    }
                    let mut fields: Vec<&str> = line.split(',').collect();
                    if col < fields.len() {
                        fields[col] = "NaN";
                        n += 1;
                    }
                    *line = fields.join(",");
                }
                detail = format!("{n} values of column `{}` set to NaN", header[col]);
            }
            FaultKind::DanglingKeys => {
                let col = header
                    .iter()
                    .position(|h| h.ends_with("_id") || h == "id")
                    .unwrap_or(0);
                for line in lines.iter_mut().skip(1) {
                    let mut fields: Vec<String> =
                        line.split(',').map(String::from).collect();
                    if col < fields.len() {
                        if let Ok(v) = fields[col].parse::<i64>() {
                            fields[col] = (v + 10_000_000).to_string();
                        }
                    }
                    *line = fields.join(",");
                }
                detail = format!("key column `{}` shifted out of domain", header[col]);
            }
            FaultKind::DuplicateHeader => {
                let mut fields = header.clone();
                if fields.len() > 1 {
                    fields[1] = fields[0].clone();
                }
                lines[0] = fields.join(",");
                detail = format!("header field 2 overwritten with `{}`", header[0]);
            }
        }
        self.record(name, kind, detail);
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Plan a runtime fault for a table of `n_rows` rows: a panic at one
    /// row of its join-index build, the row drawn from the injector's RNG,
    /// so a fixed seed and call sequence plans the same faults every time.
    /// Nothing fires until it is armed in the lake's
    /// [`FaultDomain`](autofeat_data::FaultDomain)
    /// (`SearchContext::fault_domain`).
    pub fn plan_runtime(&mut self, n_rows: usize) -> TableFaults {
        let row = self.rng.random_range(0..n_rows.max(1) as u64);
        TableFaults { panic_on_row: Some(row as usize), ..TableFaults::default() }
    }

    fn record(&mut self, table: &str, kind: FaultKind, detail: String) {
        self.manifest.push(InjectedFault { table: table.to_string(), kind, detail });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "s1_id,f,g\n0,0.5,7\n1,1.5,8\n2,2.5,9\n3,3.5,10\n4,4.5,11\n";

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut inj = FaultInjector::new(seed);
            FaultKind::all()
                .into_iter()
                .map(|k| inj.inject("t", CSV, k))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        // RaggedRows / NanFloats draw from the RNG, so another seed differs
        // somewhere in the sweep.
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn truncated_rows_cut_mid_line() {
        let mut inj = FaultInjector::new(1);
        let out = inj.inject("t", CSV, FaultKind::TruncatedRows);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.len() < CSV.lines().count());
        // The last line is a fragment: fewer fields than the header.
        let last = lines.last().unwrap();
        assert!(last.split(',').count() < 3 || !last.ends_with(|c: char| c.is_ascii_digit()));
    }

    #[test]
    fn empty_table_keeps_header_only() {
        let mut inj = FaultInjector::new(1);
        let out = inj.inject("t", CSV, FaultKind::EmptyTable);
        assert_eq!(out, "s1_id,f,g\n");
    }

    #[test]
    fn all_null_column_blanks_one_column() {
        let mut inj = FaultInjector::new(1);
        let out = inj.inject("t", CSV, FaultKind::AllNullColumn);
        // Some column (not the first) is empty in every data row.
        let blanked: Vec<usize> = (1..3)
            .filter(|&c| {
                out.lines().skip(1).all(|l| {
                    l.split(',').nth(c).map(|v| v.is_empty()).unwrap_or(false)
                })
            })
            .collect();
        assert_eq!(blanked.len(), 1);
    }

    #[test]
    fn nan_floats_target_the_float_column() {
        let mut inj = FaultInjector::new(3);
        let out = inj.inject("t", CSV, FaultKind::NanFloats);
        for line in out.lines().skip(1) {
            let fields: Vec<&str> = line.split(',').collect();
            // NaN only ever lands in the `.`-containing column (index 1).
            assert_ne!(fields[0], "NaN");
            assert_ne!(fields[2], "NaN");
        }
        assert!(inj.manifest[0].detail.contains("`f`"));
    }

    #[test]
    fn dangling_keys_shift_the_id_column() {
        let mut inj = FaultInjector::new(1);
        let out = inj.inject("t", CSV, FaultKind::DanglingKeys);
        for line in out.lines().skip(1) {
            let id: i64 = line.split(',').next().unwrap().parse().unwrap();
            assert!(id >= 10_000_000);
        }
    }

    #[test]
    fn duplicate_header_copies_first_field() {
        let mut inj = FaultInjector::new(1);
        let out = inj.inject("t", CSV, FaultKind::DuplicateHeader);
        assert!(out.starts_with("s1_id,s1_id,g\n"));
    }

    #[test]
    fn runtime_plans_are_seed_deterministic_and_in_range() {
        let plan = |seed| {
            let mut inj = FaultInjector::new(seed);
            [inj.plan_runtime(50), inj.plan_runtime(50)]
        };
        let plans = plan(7);
        assert_eq!(plans, plan(7));
        for p in plans {
            let row = p.panic_on_row.expect("a planned panic");
            assert!(row < 50, "panic row inside the table: {row}");
            assert_eq!(p.slow_join_ms, None);
        }
    }

    #[test]
    fn armed_runtime_fault_reaches_the_registry() {
        use autofeat_data::{faults::lookup, FaultDomain, RequestScope};
        let planned = FaultInjector::new(7).plan_runtime(50);
        let domain = FaultDomain::new();
        let scope = RequestScope { faults: Some(domain.clone()), ..RequestScope::capture() };
        let _in_domain = scope.enter();
        domain.arm("t", planned);
        assert_eq!(lookup("t"), Some(planned));
        domain.disarm("t");
        assert!(lookup("t").is_none());
    }

    #[test]
    fn manifest_records_every_injection() {
        let mut inj = FaultInjector::new(5);
        for k in FaultKind::all() {
            inj.inject("lake_table", CSV, k);
        }
        assert_eq!(inj.manifest.len(), FaultKind::all().len());
        assert!(inj.manifest.iter().all(|f| f.table == "lake_table"));
        assert!(inj.manifest.iter().all(|f| !f.detail.is_empty()));
    }
}
